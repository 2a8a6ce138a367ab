package live

import (
	"encoding/json"
	"strconv"
)

// ObservationDecoder turns one wire message into an Observation with the
// result encoding/json would produce, bit for bit, at a fraction of the
// cost. It scans the canonical shape {"action":[n,…],"audience":[n,…]}
// (either key order, optional JSON whitespace, each key exactly once)
// without reflection and parses every literal with the same
// strconv.ParseFloat call encoding/json makes. Any other input — another
// key, a duplicate, null, an escape, a number out of range, trailing
// bytes — is handed to json.Unmarshal unchanged, so acceptance, error text
// and nil-versus-empty results are those of encoding/json by construction.
//
// The zero value is ready to use. A decoder is not safe for concurrent
// use; give each ingest pump its own.
type ObservationDecoder struct {
	scratch []float64 // parsed literals of the message being decoded
}

// Decode parses one observation message. The returned slices are freshly
// allocated and owned by the caller: a Detector keeps them in its window
// after Observe returns, so they must never alias a buffer the decoder
// reuses.
func (d *ObservationDecoder) Decode(b []byte) (Observation, error) {
	if obs, ok := d.decodeCanonical(b); ok {
		return obs, nil
	}
	var obs Observation
	err := json.Unmarshal(b, &obs)
	return obs, err
}

// decodeCanonical is the reflection-free path; ok is false whenever the
// input leaves the canonical shape, and the caller falls back.
func (d *ObservationDecoder) decodeCanonical(b []byte) (obs Observation, ok bool) {
	d.scratch = d.scratch[:0]
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return obs, false
	}
	i++
	// nAct/nAud count each vector's literals; -1 marks a key not yet seen.
	nAct, nAud := -1, -1
	actFirst := false
	for field := 0; field < 2; field++ {
		if field == 1 {
			if i = skipSpace(b, i); i >= len(b) || b[i] != ',' {
				return obs, false
			}
			i++
		}
		i = skipSpace(b, i)
		var isAct bool
		switch {
		case hasKey(b, i, `"action"`):
			isAct, i = true, i+len(`"action"`)
		case hasKey(b, i, `"audience"`):
			i += len(`"audience"`)
		default:
			return obs, false
		}
		if (isAct && nAct >= 0) || (!isAct && nAud >= 0) {
			return obs, false // duplicate key: encoding/json keeps the last
		}
		if i = skipSpace(b, i); i >= len(b) || b[i] != ':' {
			return obs, false
		}
		start := len(d.scratch)
		if i, ok = d.parseArray(b, i+1); !ok {
			return obs, false
		}
		if isAct {
			nAct, actFirst = len(d.scratch)-start, field == 0
		} else {
			nAud = len(d.scratch) - start
		}
	}
	if i = skipSpace(b, i); i >= len(b) || b[i] != '}' {
		return obs, false
	}
	if skipSpace(b, i+1) != len(b) {
		return obs, false
	}
	// One allocation backs both vectors. The three-index slices keep an
	// append on one vector from overwriting the other.
	all := make([]float64, len(d.scratch))
	copy(all, d.scratch)
	if actFirst {
		obs.Action = all[:nAct:nAct]
		obs.Audience = all[nAct:]
	} else {
		obs.Audience = all[:nAud:nAud]
		obs.Action = all[nAud:]
	}
	return obs, true
}

// parseArray scans optional whitespace, then a JSON array of numbers
// starting at b[i], appending each value to d.scratch. It returns the
// index just past the closing bracket.
func (d *ObservationDecoder) parseArray(b []byte, i int) (int, bool) {
	if i = skipSpace(b, i); i >= len(b) || b[i] != '[' {
		return i, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for {
		j := scanNumber(b, i)
		if j < 0 {
			return i, false
		}
		// The string conversion does not escape ParseFloat (strconv clones
		// it only to build an error), so it costs no allocation for any
		// literal that fits the compiler's stack buffer.
		v, err := strconv.ParseFloat(string(b[i:j]), 64)
		if err != nil {
			return i, false
		}
		d.scratch = append(d.scratch, v)
		if i = skipSpace(b, j); i >= len(b) {
			return i, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// scanNumber matches the RFC 8259 number grammar
//
//	-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// at b[i] and returns the index just past it, or -1. Restricting the
// literal to this grammar keeps strconv.ParseFloat's wider syntax (Inf,
// NaN, hex floats, underscores) out of the fast path.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace skips JSON insignificant whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// hasKey reports whether b[i:] starts with the quoted key.
func hasKey(b []byte, i int, key string) bool {
	return len(b)-i >= len(key) && string(b[i:i+len(key)]) == key
}
