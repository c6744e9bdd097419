package obs

import (
	"fmt"
	"strconv"
)

// Query resolves a /debug/traces-style query. Exactly one of the query
// modes applies, in precedence order:
//
//   - id != "": every trace with that trace ID (Find).
//   - slowest != "": the N slowest archived traces.
//   - otherwise: the last N traces of the recent ring, most recent
//     first. last == "" defaults to 32; values above the ring capacity
//     are clamped.
//
// Malformed or non-positive numeric parameters return an error so HTTP
// handlers can 400 instead of guessing.
func (t *Tracer) Query(id, last, slowest string) ([]*Trace, error) {
	if id != "" {
		return t.Find(id), nil
	}
	if slowest != "" {
		n, err := strconv.Atoi(slowest)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid slowest parameter %q", slowest)
		}
		return t.Slowest(n), nil
	}
	n := 32
	if last != "" {
		v, err := strconv.Atoi(last)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid last parameter %q", last)
		}
		n = v
	}
	return t.Last(min(n, t.Capacity())), nil
}
