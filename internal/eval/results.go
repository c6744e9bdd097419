package eval

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ballarus/internal/orders"
)

// snapshotHeader opens docs/RESULTS.txt.
const snapshotHeader = `Results snapshot, written by blreport as RESULTS.txt in its output directory.
Table 4, the order experiments after the extension tables, and Graphs 2-3
run all 705432 subset trials.

`

// Snapshot renders docs/RESULTS.txt from e: Tables 1-7, the extension
// tables, the Section 5 order experiments, and the summary of every
// graph. The text holds no wall-clock figure, so it is byte-stable;
// the order experiments' durations go to timing. Snapshot also returns the
// exact subset experiment it ran, so a caller can check it without a
// second run.
func (e *Evaluator) Snapshot(timing io.Writer) (string, *orders.SubsetResult, error) {
	// The order experiments run first, so timing measures them rather
	// than the evaluator's cache; their text still follows the tables.
	ordersText, exact, err := e.OrdersReport(10, timing)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString(snapshotHeader)
	for _, table := range []func() (string, error){
		e.Table1, e.Table2, e.Table3,
		func() (string, error) { return e.Table4(0) },
		e.Table5, e.Table6, e.Table7,
		e.FreqTable, e.CrossProfileTable, e.DynPredTable, e.AblationTable,
	} {
		s, err := table()
		if err != nil {
			return "", nil, err
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	b.WriteString(ordersText)
	for n := 1; n <= 13; n++ {
		g, err := e.Graph(n)
		if err != nil {
			return "", nil, fmt.Errorf("graph %d: %w", n, err)
		}
		b.WriteString(g.Summary())
		b.WriteString("\n")
	}
	return b.String(), exact, nil
}

// Graph returns Graph n (1-13).
func (e *Evaluator) Graph(n int) (*Graph, error) {
	switch n {
	case 1:
		return e.Graph1()
	case 2:
		return e.Graph2()
	case 3:
		return e.Graph3()
	case 12:
		return e.Graph12(), nil
	case 13:
		return e.Graph13()
	default:
		return e.GraphSeq(n)
	}
}

// OrdersReport renders the Section 5 order experiments as blorders prints
// them: the 5040-order sweep's summary, then the exact subset experiment
// with its top most frequently chosen orders. The text holds no
// wall-clock figure; the sweep's and the experiment's durations go to
// timing. It also returns the subset experiment.
func (e *Evaluator) OrdersReport(top int, timing io.Writer) (string, *orders.SubsetResult, error) {
	var b strings.Builder
	start := time.Now()
	sweep, err := e.Sweep()
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(timing, "5040-order sweep in %.1fs\n", time.Since(start).Seconds())
	avg := sweep.SortedAvg(nil)
	fmt.Fprintf(&b, "5040-order sweep over %d benchmarks: best %.2f%%, median %.2f%%, worst %.2f%%\n",
		len(sweep.Benches), avg[0], avg[len(avg)/2], avg[len(avg)-1])
	best := sweep.BestOrder(nil)
	fmt.Fprintf(&b, "best order overall: %s\n\n", sweep.Orders[best])

	start = time.Now()
	_, res, err := e.SubsetExperiment(0)
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(timing, "subset experiment: %d trials in %.1fs\n", res.Trials, time.Since(start).Seconds())
	fmt.Fprintf(&b, "subset experiment: %d trials, %d distinct orders chosen\n",
		res.Trials, res.DistinctOrders())
	ranked := res.Ranked()
	allAvg := sweep.Avg(nil)
	b.WriteString("\npct-trials  miss-rate  order\n")
	for i, o := range ranked {
		if i >= top {
			break
		}
		fmt.Fprintf(&b, "%6.2f  %8.2f  %s\n",
			100*float64(res.BestCount[o])/float64(res.Trials), allAvg[o], sweep.Orders[o])
	}
	// Where does the overall best order rank by frequency?
	for i, o := range ranked {
		if o == best {
			fmt.Fprintf(&b, "\nthe overall best order is the #%d most frequently chosen\n", i+1)
			break
		}
	}
	return b.String(), res, nil
}
