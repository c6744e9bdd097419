package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"

	"ballarus/internal/dynpred"
	"ballarus/internal/service"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

// goldenJSON is testdata/golden.json, written by -update-golden.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// golden pins every answer the workloads verify.
type golden struct {
	// Suite holds each benchmark's result per dataset index. Results do
	// not depend on the interpreter seed; cold-suite set-up re-checks
	// every pair under random seeds and fails if one moved.
	Suite map[string][]suiteResult `json:"suite"`
	// Compare holds each entrant's misses on each benchmark's default
	// dataset, as /v1/compare reports them.
	Compare map[string]map[string]int64 `json:"compare"`
	// PaperSHA256 hashes the text one paper-repro op renders.
	PaperSHA256 string `json:"paper_sha256"`
	// PoolDigest hashes the fresh-small pool sources for defaultSeed.
	PoolDigest string `json:"fresh_small_pool_digest"`
}

type suiteResult struct {
	Dataset         string `json:"dataset"`
	Steps           int64  `json:"steps"`
	DynamicBranches int64  `json:"dynamic_branches"`
	ExitCode        int64  `json:"exit_code"`
	HeuristicMisses int64  `json:"heuristic_misses"`
}

// loadGolden decodes a golden file and checks that it covers the suite.
func loadGolden(data []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	for _, b := range suite.All() {
		if len(g.Suite[b.Name]) != len(b.Data) || len(g.Compare[b.Name]) == 0 {
			return nil, fmt.Errorf("golden: %s is missing or incomplete; rerun with -update-golden", b.Name)
		}
	}
	if g.PaperSHA256 == "" || g.PoolDigest == "" {
		return nil, errors.New("golden: paper hash or pool digest missing; rerun with -update-golden")
	}
	return &g, nil
}

func encodeGolden(g *golden) ([]byte, error) {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// writeGolden recomputes every pinned answer in-process and writes the
// golden file. Rebuild afterwards: the benchmark embeds the file.
func writeGolden(path string) error {
	g, err := computeGolden()
	if err != nil {
		return err
	}
	data, err := encodeGolden(g)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func computeGolden() (*golden, error) {
	svc := service.New()
	defer svc.Close()
	ctx := context.Background()
	g := &golden{Suite: map[string][]suiteResult{}, Compare: map[string]map[string]int64{}}
	for _, b := range suite.All() {
		for ds := range b.Data {
			res, err := svc.Predict(ctx, service.Request{Benchmark: b.Name, Dataset: ds})
			if err != nil {
				return nil, fmt.Errorf("golden: %s/%d: %w", b.Name, ds, err)
			}
			g.Suite[b.Name] = append(g.Suite[b.Name], suiteResult{
				Dataset:         b.Data[ds].Name,
				Steps:           res.Steps,
				DynamicBranches: res.DynamicBranches,
				ExitCode:        res.ExitCode,
				HeuristicMisses: dynpred.StaticResult(res.Profile, trace.PredictionVector(res.Predictions)).Miss,
			})
		}
		cr, err := svc.Compare(ctx, service.CompareRequest{Request: service.Request{Benchmark: b.Name}})
		if err != nil {
			return nil, fmt.Errorf("golden: compare %s: %w", b.Name, err)
		}
		g.Compare[b.Name] = map[string]int64{}
		for _, p := range cr.Predictors {
			g.Compare[b.Name][p.Name] = p.Misses
		}
	}
	text, err := renderPaper()
	if err != nil {
		return nil, err
	}
	g.PaperSHA256 = sha256Hex(text)
	if _, g.PoolDigest, err = buildPool(defaultSeed); err != nil {
		return nil, err
	}
	return g, nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// predictResp is the part of a /v1/predict reply the benchmark checks.
type predictResp struct {
	Steps           int64 `json:"steps"`
	DynamicBranches int64 `json:"dynamic_branches"`
	ExitCode        int64 `json:"exit_code"`
	Heuristic       struct {
		MissPct float64 `json:"miss_pct"`
		Dynamic int64   `json:"dynamic"`
	} `json:"heuristic"`
	Degraded bool   `json:"degraded"`
	Output   string `json:"output"`
}

// misses recovers the integer heuristic miss count from the reply's
// percentage; the round trip is exact for any count below 2^50.
func (r *predictResp) misses() int64 {
	return int64(math.Round(r.Heuristic.MissPct * float64(r.Heuristic.Dynamic) / 100))
}

// decodePredict decodes a reply and refuses a degraded (stale) answer:
// it may be right, but it was not computed for this request.
func decodePredict(body []byte) (*predictResp, error) {
	var r predictResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("predict reply: %w", err)
	}
	if r.Degraded {
		return nil, errors.New("degraded stale answer")
	}
	return &r, nil
}

// checkSuite verifies a suite-benchmark prediction against its golden.
func checkSuite(body []byte, want suiteResult) error {
	r, err := decodePredict(body)
	if err != nil {
		return err
	}
	got := suiteResult{Dataset: want.Dataset, Steps: r.Steps, DynamicBranches: r.DynamicBranches,
		ExitCode: r.ExitCode, HeuristicMisses: r.misses()}
	if got != want {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// checkFresh verifies a pool program run with a nonce: the output is the
// reference shifted by the nonce, and every count is the reference's.
func checkFresh(body []byte, ref *poolProgram, nonce int64) error {
	r, err := decodePredict(body)
	if err != nil {
		return err
	}
	if want := strconv.FormatInt(ref.Output+nonce, 10); r.Output != want {
		return fmt.Errorf("output %q, want %q", r.Output, want)
	}
	if r.Steps != ref.Steps || r.DynamicBranches != ref.Branches || r.misses() != ref.Misses {
		return fmt.Errorf("steps/branches/misses %d/%d/%d, want %d/%d/%d",
			r.Steps, r.DynamicBranches, r.misses(), ref.Steps, ref.Branches, ref.Misses)
	}
	return nil
}

// compareResp is the part of a /v1/compare reply the benchmark checks.
type compareResp struct {
	Steps           int64 `json:"steps"`
	DynamicBranches int64 `json:"dynamic_branches"`
	Predictors      []struct {
		Name   string `json:"name"`
		Misses int64  `json:"misses"`
	} `json:"predictors"`
}

// checkCompare verifies a default-dataset tournament: the run's counts
// and every entrant's misses.
func checkCompare(body []byte, run suiteResult, want map[string]int64) error {
	var r compareResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("compare reply: %w", err)
	}
	if r.Steps != run.Steps || r.DynamicBranches != run.DynamicBranches {
		return fmt.Errorf("steps/branches %d/%d, want %d/%d", r.Steps, r.DynamicBranches, run.Steps, run.DynamicBranches)
	}
	if len(r.Predictors) != len(want) {
		return fmt.Errorf("%d entrants, want %d", len(r.Predictors), len(want))
	}
	for _, p := range r.Predictors {
		if w, ok := want[p.Name]; !ok || p.Misses != w {
			return fmt.Errorf("%s: %d misses, want %d", p.Name, p.Misses, w)
		}
	}
	return nil
}
