package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ballarus/internal/resilience"
)

// The /debug endpoints drive deterministic chaos testing (cmd/blchaos):
// they arm the resilience faultpoint registry and force snapshots in a
// live process. They exist only behind the -chaos-admin flag and must
// never be exposed on a production listener.

// faultRequest is the POST /debug/fault body.
type faultRequest struct {
	// Point names the faultpoint, e.g. "service.execute".
	Point string `json:"point"`
	// Exactly one of Err, Panic, or Hang selects the failure mode.
	Err   string `json:"err,omitempty"`
	Panic string `json:"panic,omitempty"`
	Hang  bool   `json:"hang,omitempty"`
	// Times bounds how often the fault fires; 0 means until cleared.
	Times int `json:"times,omitempty"`
}

func (s *server) handleFault(w http.ResponseWriter, r *http.Request) {
	var req faultRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid_input", fmt.Errorf("bad fault body: %w", err))
		return
	}
	if req.Point == "" {
		httpError(w, http.StatusBadRequest, "invalid_input", errors.New("fault needs a point"))
		return
	}
	f := resilience.Fault{Hang: req.Hang, Times: req.Times}
	switch {
	case req.Panic != "":
		f.Panic = req.Panic
	case req.Err != "":
		f.Err = errors.New(req.Err)
	case !req.Hang:
		httpError(w, http.StatusBadRequest, "invalid_input",
			errors.New("fault needs one of err, panic, or hang"))
		return
	}
	resilience.InjectFault(req.Point, f)
	writeJSON(w, http.StatusOK, map[string]any{"armed": req.Point})
}

func (s *server) handleClearFaults(w http.ResponseWriter, r *http.Request) {
	resilience.ClearFaults()
	writeJSON(w, http.StatusOK, map[string]any{"cleared": true})
}

// handleSnapshot forces a snapshot write, so the harness can bound what
// a subsequent kill may lose.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.SnapshotNow(); err != nil {
		httpError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshot": true})
}
