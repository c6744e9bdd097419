// Package cli holds the plumbing shared by the cmd/bl* binaries: fatal
// error reporting, signal-aware root contexts, input-file loading,
// heuristic-order parsing, benchmark selection, and artifact output.
// Keeping it here means each main is only its own flag surface and
// pipeline calls.
package cli

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"ballarus/internal/core"
	"ballarus/internal/suite"
)

// NewLogger builds a process logger from the conventional -log-level
// and -log-format flag values shared by the server binaries.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// Exit prints "tool: err" to stderr and exits 1.
func Exit(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Usage prints a usage line to stderr and exits 2.
func Usage(line string) {
	fmt.Fprintln(os.Stderr, "usage:", line)
	os.Exit(2)
}

// SignalContext returns a root context canceled by SIGINT/SIGTERM, so a
// Ctrl-C interrupts in-flight pipeline work instead of killing it
// mid-write. A second signal kills the process via the default handler.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ReadIntFile loads a whitespace-separated integer file as an input
// stream.
func ReadIntFile(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var input []int64
	for _, f := range strings.Fields(string(data)) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input %q: %v", f, err)
		}
		input = append(input, v)
	}
	return input, nil
}

// ReadTextFile loads a file as a character-code input stream.
func ReadTextFile(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	input := make([]int64, len(data))
	for i, c := range data {
		input[i] = int64(c)
	}
	return input, nil
}

// InputFlags resolves the conventional -in (integers) and -text
// (characters) input-file flags; at most one may be set.
func InputFlags(intFile, textFile string) ([]int64, error) {
	switch {
	case intFile != "" && textFile != "":
		return nil, fmt.Errorf("-in and -text are mutually exclusive")
	case intFile != "":
		return ReadIntFile(intFile)
	case textFile != "":
		return ReadTextFile(textFile)
	}
	return nil, nil
}

// ParseOrder parses a heuristic priority order like
// "Point+Call+Opcode+Return+Store+Loop+Guard".
func ParseOrder(spec string) (core.Order, error) {
	names := map[string]core.Heuristic{
		"opcode": core.Opcode, "loop": core.LoopH, "call": core.CallH,
		"return": core.ReturnH, "guard": core.Guard, "store": core.Store,
		"point": core.Point, "pointer": core.Point,
	}
	parts := strings.Split(spec, "+")
	var o core.Order
	if len(parts) != len(o) {
		return o, fmt.Errorf("order needs %d heuristics, got %d", len(o), len(parts))
	}
	for i, p := range parts {
		h, ok := names[strings.ToLower(strings.TrimSpace(p))]
		if !ok {
			return o, fmt.Errorf("unknown heuristic %q", p)
		}
		o[i] = h
	}
	if !o.Valid() {
		return o, fmt.Errorf("order %q repeats a heuristic", spec)
	}
	return o, nil
}

// OrderFlag resolves an -order flag value: empty means the paper's
// default order.
func OrderFlag(spec string) (core.Order, error) {
	if spec == "" {
		return core.DefaultOrder, nil
	}
	return ParseOrder(spec)
}

// SelectBenchmark returns the named suite benchmark, with an error that
// lists the available names on a miss.
func SelectBenchmark(name string) (*suite.Benchmark, error) {
	if b := suite.Get(name); b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("no benchmark %q (have: %s)", name, strings.Join(suite.Names(), " "))
}

// Dataset bounds-checks a benchmark dataset index.
func Dataset(b *suite.Benchmark, idx int) (suite.Dataset, error) {
	if idx < 0 || idx >= len(b.Data) {
		return suite.Dataset{}, fmt.Errorf("%s has datasets 0..%d", b.Name, len(b.Data)-1)
	}
	return b.Data[idx], nil
}

// WriteArtifact writes one generated file under dir and reports it.
func WriteArtifact(dir, name, content string) error {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(content))
	return nil
}
