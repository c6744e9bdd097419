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
// and exit promptly on SIGINT/SIGTERM.
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

	e := ballarus.NewEvaluator()
	start := time.Now()
	sweep, err := e.SweepCtx(ctx)
	if err != nil {
		fatal(err)
	}
	avg := sweep.SortedAvg(nil)
	fmt.Printf("5040-order sweep over %d benchmarks (%.1fs): best %.2f%%, median %.2f%%, worst %.2f%%\n",
		len(sweep.Benches), time.Since(start).Seconds(),
		avg[0], avg[len(avg)/2], avg[len(avg)-1])
	best := sweep.BestOrder(nil)
	fmt.Printf("best order overall: %s\n\n", sweep.Orders[best])

	t := cli.Trials(*trials, *exact)
	start = time.Now()
	var progress func(done, total int64)
	if !*quiet {
		progress = progressReporter(start)
	}
	_, res, err := e.SubsetExperimentCtx(ctx, t, progress)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("subset experiment: %d trials in %.1fs, %d distinct orders chosen\n",
		res.Trials, time.Since(start).Seconds(), res.DistinctOrders())
	ranked := res.Ranked()
	allAvg := sweep.Avg(nil)
	n := *top
	if n > len(ranked) {
		n = len(ranked)
	}
	fmt.Println("\npct-trials  miss-rate  order")
	for i := 0; i < n; i++ {
		o := ranked[i]
		fmt.Printf("%6.2f  %8.2f  %s\n",
			100*float64(res.BestCount[o])/float64(res.Trials), allAvg[o], sweep.Orders[o])
	}
	// Where does the overall best order rank by frequency?
	for i, o := range ranked {
		if o == best {
			fmt.Printf("\nthe overall best order is the #%d most frequently chosen\n", i+1)
			break
		}
	}
}

// progressReporter throttles the experiment's progress callback to one
// stderr line every half second: trials done, percent, rate, and ETA.
// The callback fires concurrently from the scoring workers, so a CAS on
// the last-print timestamp elects a single printer.
func progressReporter(start time.Time) func(done, total int64) {
	var lastPrint atomic.Int64
	lastPrint.Store(start.UnixNano())
	return func(done, total int64) {
		if done >= total {
			return // the completion summary covers the final state
		}
		now := time.Now()
		last := lastPrint.Load()
		if now.UnixNano()-last < int64(500*time.Millisecond) ||
			!lastPrint.CompareAndSwap(last, now.UnixNano()) {
			return
		}
		elapsed := now.Sub(start).Seconds()
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
