package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child server process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
}

// spawn starts a server with -addr 127.0.0.1:0 -log-format json among
// its args and waits for its "listening" record, which carries the
// bound address. Its standard error goes to logPath.
func spawn(bin, name, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	lw := &listenWriter{w: logf, addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = lw
	// A benchmark killed mid-run must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status of a killed server carries no information
		logf.Close()
		close(p.done)
	}()
	select {
	case p.addr = <-lw.addr:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening; see %s", name, logPath)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s never reported its address; see %s", name, logPath)
	}
}

// stop kills the process and waits until it has been reaped.
func (p *proc) stop() {
	p.cmd.Process.Kill() // fails only if it already exited, which done covers
	<-p.done
}

func (p *proc) url() string { return "http://" + p.addr }

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// listenWriter forwards a server's log and picks the bound address out
// of its structured startup record.
type listenWriter struct {
	w       io.Writer
	addr    chan string
	partial []byte
	found   bool
}

func (l *listenWriter) Write(b []byte) (int, error) {
	if !l.found {
		l.partial = append(l.partial, b...)
		for {
			i := bytes.IndexByte(l.partial, '\n')
			if i < 0 {
				break
			}
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(l.partial[:i], &rec) == nil && rec.Msg == "listening" && rec.Addr != "" {
				l.found = true
				l.addr <- rec.Addr
				l.partial = nil
				break
			}
			l.partial = l.partial[i+1:]
		}
	}
	return l.w.Write(b)
}

// stack is the serving topology every serving workload runs against:
// blgate in front of two single-worker blserve replicas, so total
// service concurrency equals the two cores the benchmark is sized for.
type stack struct {
	replicas []*proc
	gate     *proc
	hc       *http.Client // for set-up, stats, and probes; clients bring their own
}

// bootStack starts the replicas and the gateway and waits until the
// gateway routes to both. With admin set, the replicas expose pprof.
func bootStack(ctx context.Context, e *env, tag string, admin bool) (*stack, error) {
	s := &stack{hc: &http.Client{Timeout: time.Minute}}
	bin := filepath.Join(e.work, "bin")
	logPath := func(name string) string {
		return filepath.Join(e.work, "log", fmt.Sprintf("%s-%s-%s.log", e.workload, tag, name))
	}
	var urls []string
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("r%d", i)
		// A 512-entry cache holds every suite program and answer, yet fills
		// within seconds under fresh-small, so peak RSS measures the
		// steady state rather than how many ops the window happened to fit.
		args := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-cache", "512",
			"-instance-id", name, "-log-format", "json"}
		if admin {
			args = append(args, "-chaos-admin")
		}
		p, err := spawn(filepath.Join(bin, "blserve"), name, logPath(name), args...)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.replicas = append(s.replicas, p)
		urls = append(urls, p.url())
	}
	// The gateway's routing tie-breaks draw from the workload seed too
	// (made odd, since 0 would mean the clock).
	gate, err := spawn(filepath.Join(bin, "blgate"), "gate", logPath("gate"),
		"-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","),
		"-routing-seed", strconv.FormatUint(uint64(e.seed)<<1|1, 10), "-log-format", "json")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gate = gate
	if err := s.waitHealthy(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *stack) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h struct {
			Healthy int `json:"healthy_replicas"`
		}
		if err := getJSON(ctx, s.hc, s.gate.url()+"/healthz", &h); err == nil && h.Healthy == len(s.replicas) {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return errors.New("gateway never saw every replica healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop kills every process and waits for each to exit.
func (s *stack) stop() {
	if s.gate != nil {
		s.gate.stop()
	}
	for _, p := range s.replicas {
		p.stop()
	}
	s.hc.CloseIdleConnections()
}

// peakRSSMB sums the high-water RSS of the gateway and the replicas.
func (s *stack) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range append([]*proc{s.gate}, s.replicas...) {
		mb, err := peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// counters reads the shape counters the per-layer fractions are built
// from: per-stage cache hits and misses, requests, and sheds summed over
// the replicas' /v1/stats, and the gateway's hedge and brownout counts.
func (s *stack) counters(ctx context.Context) (map[string]int64, error) {
	c := map[string]int64{}
	for _, p := range s.replicas {
		var st struct {
			Requests int64 `json:"requests"`
			Shed     int64 `json:"shed"`
			Stages   []struct {
				Name        string `json:"name"`
				CacheHits   int64  `json:"cache_hits"`
				CacheMisses int64  `json:"cache_misses"`
			} `json:"stages"`
		}
		if err := getJSON(ctx, s.hc, p.url()+"/v1/stats", &st); err != nil {
			return nil, err
		}
		c["requests"] += st.Requests
		c["shed"] += st.Shed
		for _, sg := range st.Stages {
			c[sg.Name+".hit"] += sg.CacheHits
			c[sg.Name+".miss"] += sg.CacheMisses
		}
	}
	var g struct {
		HedgeFires  int64 `json:"hedge_fires"`
		HedgeWins   int64 `json:"hedge_wins"`
		StaleServed int64 `json:"stale_served"`
	}
	if err := getJSON(ctx, s.hc, s.gate.url()+"/gateway/stats", &g); err != nil {
		return nil, err
	}
	c["hedge_fires"], c["hedge_wins"], c["stale_served"] = g.HedgeFires, g.HedgeWins, g.StaleServed
	return c, nil
}

// startCPUProfiles asks every replica for a CPU profile covering d and
// writes each to path.<replica>; the returned function waits for them.
func (s *stack) startCPUProfiles(ctx context.Context, path string, d time.Duration) func() error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.replicas))
	for i, p := range s.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", p.url(), int(d.Round(time.Second)/time.Second))
			errs[i] = fetchTo(ctx, url, path+"."+p.name)
		}()
	}
	return func() error {
		wg.Wait()
		return errors.Join(errs...)
	}
}

// writeHeapProfiles writes every replica's heap profile to path.<replica>.
func (s *stack) writeHeapProfiles(ctx context.Context, path string) error {
	var errs []error
	for _, p := range s.replicas {
		errs = append(errs, fetchTo(ctx, p.url()+"/debug/pprof/heap", path+"."+p.name))
	}
	return errors.Join(errs...)
}

func fetchTo(ctx context.Context, url, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// post sends one JSON request and returns the body of a 200 reply; any
// other status is an error.
func post(ctx context.Context, hc *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, b)
	}
	return b, nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// newClient is one load-generating client's HTTP client: a single
// keep-alive connection, reused for every op.
func newClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
