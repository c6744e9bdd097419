// blorders runs the Section 5 ordering experiments: the 5040-order sweep
// and the C(22,11) generalization experiment.
//
// Usage:
//
//	blorders                 # sweep summary + sampled subset experiment
//	blorders -exact          # the full 705,432-trial experiment
//	blorders -trials 50000   # a bigger sample
//
// Long runs report periodic progress (trials done, rate, ETA) on stderr
// and exit promptly on SIGINT/SIGTERM. Wall-clock timings go to stderr
// too, so stdout is byte-stable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"ballarus"
	"ballarus/internal/cli"
)

func main() {
	exact := flag.Bool("exact", false, "run all 705,432 subset trials")
	trials := flag.Int("trials", 20000, "sampled trials (ignored with -exact)")
	top := flag.Int("top", 10, "orders to list")
	quiet := flag.Bool("q", false, "suppress the stderr progress reports")
	flag.Parse()

	ctx, stop := cli.SignalContext()
	defer stop()

	t := cli.Trials(*trials, *exact)
	var progress func(done, total int64)
	if !*quiet {
		progress = progressReporter()
	}
	text, _, err := ballarus.NewEvaluator().OrdersReport(ctx, t, *top, progress, os.Stderr)
	if err != nil {
		fatal(err)
	}
	fmt.Print(text)
}

// progressReporter throttles the experiment's progress callback to one
// stderr line every half second: trials done, percent, rate, and ETA.
// Its clock starts at the first callback, so the sweep before the
// experiment does not count toward the rate. The callback fires
// concurrently from the scoring workers, so a CAS on the last-print
// timestamp elects a single printer.
func progressReporter() func(done, total int64) {
	var start, lastPrint atomic.Int64
	return func(done, total int64) {
		if done >= total {
			return // the completion summary covers the final state
		}
		now := time.Now().UnixNano()
		lastPrint.CompareAndSwap(0, now)
		start.CompareAndSwap(0, now)
		last := lastPrint.Load()
		if now-last < int64(500*time.Millisecond) || !lastPrint.CompareAndSwap(last, now) {
			return
		}
		elapsed := time.Duration(now - start.Load()).Seconds()
		rate := float64(done) / elapsed
		eta := time.Duration(float64(total-done) / rate * float64(time.Second))
		fmt.Fprintf(os.Stderr, "blorders: %d/%d trials (%.1f%%), %.0f/s, ~%s left\n",
			done, total, 100*float64(done)/float64(total), rate, eta.Round(time.Second))
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "blorders: interrupted")
		os.Exit(130)
	}
	cli.Exit("blorders", err)
}
