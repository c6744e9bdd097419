package main

import (
	"fmt"
	"net/http"
	"time"

	"ballarus"
	"ballarus/internal/cli"
)

// defaultBatchMax bounds POST /v1/batch item counts unless -batch-max
// overrides it.
const defaultBatchMax = 64

// batchRequest is the POST /v1/batch body: N predict/compare items
// admitted as one unit against the tenant's quota.
type batchRequest struct {
	Items []batchItemRequest `json:"items"`
}

// batchItemRequest is one batch element; exactly one of Predict or
// Compare must be set.
type batchItemRequest struct {
	Predict *predictRequest `json:"predict,omitempty"`
	Compare *compareRequest `json:"compare,omitempty"`
}

// batchItemResponse is one element's outcome: a predict or compare
// result, or the item's own classified error. The batch has partial-
// result semantics — one bad item never voids its neighbours.
type batchItemResponse struct {
	Predict *predictResponse `json:"predict,omitempty"`
	Compare *compareResponse `json:"compare,omitempty"`
	Error   string           `json:"error,omitempty"`
	Code    string           `json:"code,omitempty"`
}

// batchResponse is the POST /v1/batch reply.
type batchResponse struct {
	Items         []batchItemResponse `json:"items"`
	Succeeded     int                 `json:"succeeded"`
	Failed        int                 `json:"failed"`
	ElapsedMillis float64             `json:"elapsed_ms"`
}

// handleBatch serves POST /v1/batch. The whole batch is admitted
// against the tenant's quota as a unit (all N tokens or none — a quota
// rejection is a single 429 with X-RateLimit-* headers and no work
// done), then items fan through the same single-flight caches as
// single requests with per-item error reporting. A shed batch is a
// 429; brownout answers come from the gateway's cache.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		httpError(w, http.StatusBadRequest, "invalid_input", fmt.Errorf("batch needs at least one item"))
		return
	}
	if len(req.Items) > s.batchMax {
		httpError(w, http.StatusBadRequest, "invalid_input",
			fmt.Errorf("batch of %d items exceeds the %d-item limit", len(req.Items), s.batchMax))
		return
	}

	// Items that fail wire-level conversion (a bad heuristic order) are
	// passed through empty so the service still charges and counts them,
	// then their slot is overwritten with the real parse error below.
	items := make([]ballarus.BatchItem, len(req.Items))
	convErr := make([]error, len(req.Items))
	for i, it := range req.Items {
		if it.Predict != nil {
			pr, err := toPredictReq(*it.Predict)
			if err != nil {
				convErr[i] = err
				continue
			}
			items[i].Predict = &pr
		}
		if it.Compare != nil {
			cr, err := toCompareReq(*it.Compare)
			if err != nil {
				convErr[i] = err
				continue
			}
			items[i].Compare = &cr
		}
	}

	out, err := s.svc.Batch(r.Context(), items)
	if err != nil {
		serviceError(w, r, err)
		return
	}

	resp := batchResponse{
		Items:         make([]batchItemResponse, len(out.Items)),
		Succeeded:     out.Succeeded,
		Failed:        out.Failed,
		ElapsedMillis: float64(out.Elapsed) / float64(time.Millisecond),
	}
	for i, ir := range out.Items {
		switch {
		case convErr[i] != nil:
			resp.Items[i] = batchItemResponse{Error: convErr[i].Error(), Code: "invalid_input"}
		case ir.Err != nil:
			_, code := statusFor(r, ir.Err)
			resp.Items[i] = batchItemResponse{Error: ir.Err.Error(), Code: code}
		case ir.Predict != nil:
			pr := toPredictResp(ir.Predict, req.Items[i].Predict.IncludeOutput)
			resp.Items[i].Predict = &pr
		case ir.Compare != nil:
			cr := toCompareResp(ir.Compare, req.Items[i].Compare.IncludePerBranch)
			resp.Items[i].Compare = &cr
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// toPredictReq maps the wire predict body onto the service request.
func toPredictReq(req predictRequest) (ballarus.PredictRequest, error) {
	order, err := cli.OrderFlag(req.Order)
	if err != nil {
		return ballarus.PredictRequest{}, err
	}
	return ballarus.PredictRequest{
		Source:    req.Source,
		Benchmark: req.Benchmark,
		Dataset:   req.Dataset,
		Optimize:  req.Optimize,
		Order:     order,
		Input:     req.Input,
		Budget:    req.Budget,
		Seed:      req.Seed,
	}, nil
}

// toCompareReq maps the wire compare body onto the service request.
func toCompareReq(req compareRequest) (ballarus.CompareRequest, error) {
	order, err := cli.OrderFlag(req.Order)
	if err != nil {
		return ballarus.CompareRequest{}, err
	}
	return ballarus.CompareRequest{
		Request: ballarus.PredictRequest{
			Source:    req.Source,
			Benchmark: req.Benchmark,
			Dataset:   req.Dataset,
			Optimize:  req.Optimize,
			Order:     order,
			Input:     req.Input,
			Budget:    req.Budget,
			Seed:      req.Seed,
		},
		Predictors:     req.Predictors,
		H2PMinExecuted: req.H2PMinExecuted,
	}, nil
}

// toPredictResp maps a service result onto the wire response,
// withholding the program output unless the item asked for it.
func toPredictResp(res *ballarus.PredictResult, includeOutput bool) predictResponse {
	resp := predictResponse{
		Name:            res.Name,
		StaticBranches:  res.StaticBranches,
		DynamicBranches: res.DynamicBranches,
		Steps:           res.Steps,
		ExitCode:        res.ExitCode,
		Heuristic:       toRate(res.Heuristic),
		Vote:            toRate(res.Vote),
		LoopRand:        toRate(res.LoopRand),
		BTFNT:           toRate(res.BTFNT),
		ProgramCached:   res.ProgramCached,
		AnalysisCached:  res.AnalysisCached,
		RunCached:       res.RunCached,
		ElapsedMillis:   float64(res.Elapsed) / float64(time.Millisecond),
		Output:          res.Output,
	}
	if !includeOutput {
		resp.Output = ""
	}
	return resp
}

// toCompareResp maps a tournament result onto the wire response,
// dropping the per-branch tallies unless the item asked for them.
func toCompareResp(res *ballarus.CompareResult, includePerBranch bool) compareResponse {
	resp := compareResponse{
		Name:            res.Name,
		StaticBranches:  res.StaticBranches,
		DynamicBranches: res.DynamicBranches,
		Steps:           res.Steps,
		Predictors:      res.Predictors,
		H2P:             res.H2P,
		ProgramCached:   res.ProgramCached,
		AnalysisCached:  res.AnalysisCached,
		CompareCached:   res.CompareCached,
		ElapsedMillis:   float64(res.Elapsed) / float64(time.Millisecond),
	}
	if !includePerBranch {
		scores := make([]ballarus.PredictorScore, len(resp.Predictors))
		copy(scores, resp.Predictors)
		for i := range scores {
			scores[i].PerBranch = nil
		}
		resp.Predictors = scores
	}
	return resp
}
