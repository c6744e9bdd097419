// blorders runs the Section 5 ordering experiments: the 5040-order sweep
// and all C(22,11) = 705,432 trials of the generalization experiment.
//
// Usage:
//
//	blorders           # sweep summary + the 10 most common orders
//	blorders -top 20   # list more orders
//
// Wall-clock timings go to stderr, so stdout is byte-stable.
package main

import (
	"flag"
	"fmt"
	"os"

	"ballarus"
	"ballarus/internal/cli"
)

func main() {
	top := flag.Int("top", 10, "orders to list")
	flag.Parse()

	text, _, err := ballarus.NewEvaluator().OrdersReport(*top, os.Stderr)
	if err != nil {
		cli.Exit("blorders", err)
	}
	fmt.Print(text)
}
