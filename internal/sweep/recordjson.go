package sweep

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendRecordJSON appends one record's compact JSON to dst —
// byte-identical to json.Marshal(r): same field order, same omitempty
// behaviour, same float formatting, same string escaping. It neither
// reflects nor allocates (beyond growing dst), which is what makes the
// store's segment appends and the workers' completion bodies cheap.
func AppendRecordJSON(dst []byte, r Record) ([]byte, error) {
	for _, v := range [...]float64{
		r.Spec.BoardSpacingM, r.Spec.BoardEdgeM, r.Spec.LinkRateGbps,
		r.Spec.StackInjectionRate, r.Spec.SNRMarginDB,
		r.TxPowerDBm, r.SpectralEfficiency, r.DecodeLatencyBits,
		r.NoCLatencyCycles, r.NoCSaturation,
		r.BEREbN0DB, r.BER,
		r.SimLatencyCycles, r.SimLatencyCI95,
	} {
		if err := finiteJSONFloat(v); err != nil {
			return dst, err
		}
	}
	// Optional spec sections carry floats too; guard them only when
	// present so the common nil-section path stays a fixed-size scan.
	if t := r.Spec.Traffic; t != nil {
		if err := finiteJSONFloat(t.HotspotFraction); err != nil {
			return dst, err
		}
	}
	if in := r.Spec.Interference; in != nil {
		if err := finiteJSONFloat(in.RejectionDB); err != nil {
			return dst, err
		}
	}
	if p := r.Spec.Power; p != nil {
		if err := finiteJSONFloat(p.MaxTxPowerDBm); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `{"scenario":`...)
	dst = AppendJSONString(dst, r.Scenario)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"label":`...)
	dst = AppendJSONString(dst, r.Label)
	// core.SystemSpec has no json tags: keys are the Go field names.
	dst = append(dst, `,"spec":{"Boards":`...)
	dst = strconv.AppendInt(dst, int64(r.Spec.Boards), 10)
	dst = append(dst, `,"BoardSpacingM":`...)
	dst = appendJSONFloat(dst, r.Spec.BoardSpacingM)
	dst = append(dst, `,"BoardEdgeM":`...)
	dst = appendJSONFloat(dst, r.Spec.BoardEdgeM)
	dst = append(dst, `,"NodesPerBoard":`...)
	dst = strconv.AppendInt(dst, int64(r.Spec.NodesPerBoard), 10)
	dst = append(dst, `,"LinkRateGbps":`...)
	dst = appendJSONFloat(dst, r.Spec.LinkRateGbps)
	dst = append(dst, `,"LatencyBudgetBits":`...)
	dst = strconv.AppendInt(dst, int64(r.Spec.LatencyBudgetBits), 10)
	dst = append(dst, `,"StackModules":`...)
	dst = strconv.AppendInt(dst, int64(r.Spec.StackModules), 10)
	dst = append(dst, `,"StackInjectionRate":`...)
	dst = appendJSONFloat(dst, r.Spec.StackInjectionRate)
	dst = append(dst, `,"Butler":`...)
	dst = strconv.AppendBool(dst, r.Spec.Butler)
	dst = append(dst, `,"SNRMarginDB":`...)
	dst = appendJSONFloat(dst, r.Spec.SNRMarginDB)
	// The optional sections are tagged pointers with omitempty: nil
	// emits nothing (preserving the pre-section byte stream), non-nil
	// emits every section field in declaration order.
	if t := r.Spec.Traffic; t != nil {
		dst = append(dst, `,"traffic":{"pattern":`...)
		dst = AppendJSONString(dst, t.Pattern)
		dst = append(dst, `,"hotspot_module":`...)
		dst = strconv.AppendInt(dst, int64(t.HotspotModule), 10)
		dst = append(dst, `,"hotspot_fraction":`...)
		dst = appendJSONFloat(dst, t.HotspotFraction)
		dst = append(dst, '}')
	}
	if in := r.Spec.Interference; in != nil {
		dst = append(dst, `,"interference":{"neighbors":`...)
		dst = strconv.AppendInt(dst, int64(in.Neighbors), 10)
		dst = append(dst, `,"copper_boards":`...)
		dst = strconv.AppendBool(dst, in.CopperBoards)
		dst = append(dst, `,"rejection_db":`...)
		dst = appendJSONFloat(dst, in.RejectionDB)
		dst = append(dst, '}')
	}
	if p := r.Spec.Power; p != nil {
		dst = append(dst, `,"power":{"max_tx_power_dbm":`...)
		dst = appendJSONFloat(dst, p.MaxTxPowerDBm)
		dst = append(dst, '}')
	}
	dst = append(dst, '}')
	if r.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = AppendJSONString(dst, r.Err)
	}
	dst = append(dst, `,"tx_power_dbm":`...)
	dst = appendJSONFloat(dst, r.TxPowerDBm)
	dst = append(dst, `,"spectral_efficiency_bps_hz":`...)
	dst = appendJSONFloat(dst, r.SpectralEfficiency)
	dst = append(dst, `,"code_lifting":`...)
	dst = strconv.AppendInt(dst, int64(r.CodeLifting), 10)
	dst = append(dst, `,"code_window":`...)
	dst = strconv.AppendInt(dst, int64(r.CodeWindow), 10)
	dst = append(dst, `,"decode_latency_bits":`...)
	dst = appendJSONFloat(dst, r.DecodeLatencyBits)
	dst = append(dst, `,"topology":`...)
	dst = AppendJSONString(dst, r.Topology)
	dst = append(dst, `,"noc_latency_cycles":`...)
	dst = appendJSONFloat(dst, r.NoCLatencyCycles)
	dst = append(dst, `,"noc_saturation":`...)
	dst = appendJSONFloat(dst, r.NoCSaturation)
	if r.BEREbN0DB != 0 {
		dst = append(dst, `,"ber_ebn0_db":`...)
		dst = appendJSONFloat(dst, r.BEREbN0DB)
	}
	if r.BER != 0 {
		dst = append(dst, `,"ber":`...)
		dst = appendJSONFloat(dst, r.BER)
	}
	if r.BERCodewords != 0 {
		dst = append(dst, `,"ber_codewords":`...)
		dst = strconv.AppendInt(dst, int64(r.BERCodewords), 10)
	}
	if r.SimLatencyCycles != 0 {
		dst = append(dst, `,"sim_latency_cycles":`...)
		dst = appendJSONFloat(dst, r.SimLatencyCycles)
	}
	if r.SimLatencyCI95 != 0 {
		dst = append(dst, `,"sim_latency_ci95":`...)
		dst = appendJSONFloat(dst, r.SimLatencyCI95)
	}
	if r.SimReplications != 0 {
		dst = append(dst, `,"sim_replications":`...)
		dst = strconv.AppendInt(dst, int64(r.SimReplications), 10)
	}
	dst = append(dst, `,"pareto":`...)
	dst = strconv.AppendBool(dst, r.Pareto)
	dst = append(dst, '}')
	return dst, nil
}

// finiteJSONFloat rejects the floats encoding/json refuses, matching
// its *UnsupportedValueError text so callers switching to this encoder
// see familiar failures.
func finiteJSONFloat(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	return nil
}

// appendJSONFloat appends a float the way encoding/json does: shortest
// round-trip form, 'f' format except for very small or very large
// magnitudes, and a trimmed single-digit exponent ("1e-7", not
// "1e-07"). Callers have already rejected NaN and infinities.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// jsonSafe marks bytes encoding/json emits verbatim inside a quoted
// string (its htmlSafeSet: printable ASCII minus `"`, `\`, `<`, `>`,
// `&`).
var jsonSafe = func() (s [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		s[c] = true
	}
	s['"'], s['\\'], s['<'], s['>'], s['&'] = false, false, false, false, false
	return
}()

const jsonHex = "0123456789abcdef"

// AppendJSONString appends a quoted string with encoding/json's exact
// escaping rules (HTML escaping on, invalid UTF-8 replaced by U+FFFD,
// U+2028/U+2029 escaped). The store's segment writer uses it for entry
// keys.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
