package durable

import (
	"time"
)

// Watchdog detects a wedged worker pool: the probe reports a progress
// counter and whether the pool is saturated with waiters; if the pool
// stays saturated with no progress for a full deadline, the restart
// callback fires. It is deliberately ignorant of what "restart" means —
// the service swaps in a fresh worker pool and strands the wedged one.
type Watchdog struct {
	deadline time.Duration
	poll     time.Duration
	probe    func() (progress int64, wedgeable bool)
	restart  func()

	stopc chan struct{}
	donec chan struct{}
}

// NewWatchdog creates a watchdog; Start arms it. probe must be safe to
// call from another goroutine. poll <= 0 derives a poll interval from
// the deadline.
func NewWatchdog(deadline, poll time.Duration, probe func() (int64, bool), restart func()) *Watchdog {
	if poll <= 0 {
		poll = deadline / 4
		if poll < 10*time.Millisecond {
			poll = 10 * time.Millisecond
		}
	}
	return &Watchdog{
		deadline: deadline,
		poll:     poll,
		probe:    probe,
		restart:  restart,
		stopc:    make(chan struct{}),
		donec:    make(chan struct{}),
	}
}

// Start arms the watchdog.
func (w *Watchdog) Start() {
	go w.loop()
}

// Stop disarms it and waits for the monitor goroutine to exit.
func (w *Watchdog) Stop() {
	close(w.stopc)
	<-w.donec
}

func (w *Watchdog) loop() {
	defer close(w.donec)
	t := time.NewTicker(w.poll)
	defer t.Stop()
	lastProgress, _ := w.probe()
	lastChange := time.Now()
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
		}
		progress, wedgeable := w.probe()
		if progress != lastProgress || !wedgeable {
			lastProgress = progress
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) >= w.deadline {
			w.restart()
			lastChange = time.Now()
		}
	}
}
