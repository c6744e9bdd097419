package resilience

import (
	"context"
	"sync"
	"sync/atomic"
)

// Fault describes one injected failure at a Faultpoint. Exactly one of
// Err, Panic, or Hang should be set.
type Fault struct {
	// Err is returned from the faultpoint as the stage's failure. Left
	// unclassified, it surfaces as ErrInternal.
	Err error
	// Panic, when non-nil, is panicked with — exercising the Safely
	// isolation layer.
	Panic any
	// Hang blocks the faultpoint until the request's context expires —
	// exercising deadline handling. Never inject a hang on a context
	// without a deadline or cancel path.
	Hang bool
	// Times bounds how often the fault fires before disarming itself;
	// 0 means until ClearFaults.
	Times int
}

// The global fault registry. Faultpoint takes a single atomic load when
// nothing is armed, so production traffic pays essentially nothing.
var (
	faultArmed atomic.Int32
	faultMu    sync.Mutex
	faultTab   = map[string]*faultEntry{}
)

type faultEntry struct {
	f         Fault
	remaining int // shots left when f.Times > 0
}

// InjectFault arms the named faultpoint. Tests that inject faults must
// not run in parallel with each other and should defer ClearFaults.
func InjectFault(name string, f Fault) {
	faultMu.Lock()
	defer faultMu.Unlock()
	faultTab[name] = &faultEntry{f: f, remaining: f.Times}
	faultArmed.Store(int32(len(faultTab)))
}

// ClearFaults disarms every faultpoint.
func ClearFaults() {
	faultMu.Lock()
	defer faultMu.Unlock()
	faultTab = map[string]*faultEntry{}
	faultArmed.Store(0)
}

// Faultpoint is a named fault-injection hook. Production code threads
// these through failure-prone paths; with nothing armed it is a no-op
// (one atomic load). When the named fault is armed it returns the
// injected error, panics, or hangs until ctx expires, per the Fault.
func Faultpoint(ctx context.Context, name string) error {
	if faultArmed.Load() == 0 {
		return nil
	}
	faultMu.Lock()
	e, ok := faultTab[name]
	if ok {
		if e.f.Times > 0 {
			e.remaining--
			if e.remaining <= 0 {
				delete(faultTab, name)
				faultArmed.Store(int32(len(faultTab)))
			}
		}
	}
	faultMu.Unlock()
	if !ok {
		return nil
	}
	switch {
	case e.f.Hang:
		<-ctx.Done()
		return ctx.Err()
	case e.f.Panic != nil:
		panic(e.f.Panic)
	default:
		return e.f.Err
	}
}
