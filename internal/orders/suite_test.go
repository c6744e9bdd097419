package orders_test

import (
	"context"
	"reflect"
	"testing"

	"ballarus/internal/eval"
	"ballarus/internal/orders"
)

// TestSubsetsSampledPrunedOnSuite runs the sampled experiment the
// benchmark harness runs, 5000 trials at seed 1993 over the suite's
// 22-benchmark sweep, and requires the pruned counts to equal the
// unpruned loop's.
func TestSubsetsSampledPrunedOnSuite(t *testing.T) {
	s, err := eval.New().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SubsetsSampledCtx(context.Background(), 11, 5000, 1993)
	if err != nil {
		t.Fatal(err)
	}
	if want := orders.SampledReference(s, 11, 5000, 1993); !reflect.DeepEqual(got, want) {
		t.Fatal("pruned sampled experiment differs from the unpruned loop on the suite sweep")
	}
}
