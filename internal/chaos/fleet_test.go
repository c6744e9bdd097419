package chaos

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// orphanHelperEnv, set to a blserve path, turns the test binary into a
// helper that boots a one-replica fleet, prints the replica's PID, and
// exits without teardown.
const orphanHelperEnv = "CHAOS_ORPHAN_HELPER_BIN"

func TestMain(m *testing.M) {
	if bin := os.Getenv(orphanHelperEnv); bin != "" {
		f := &fleet{log: io.Discard, procs: map[string]*proc{}, rep: &Report{}}
		if err := f.start("r0", bin); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(f.procs["r0"].cmd.Process.Pid)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestChildrenDieWithHarness: a harness that exits without teardown (a
// test timeout, a killed blchaos) must not leave its servers running.
// The replica must be gone, or a zombie awaiting its new parent's
// reap, within 5s of the helper's exit.
func TestChildrenDieWithHarness(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the parent-death signal is Linux-only")
	}
	if testing.Short() {
		t.Skip("spawns processes; skipped with -short")
	}
	bin, err := BuildServe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	helper := exec.Command(os.Args[0], "-test.run=^$")
	helper.Env = append(os.Environ(), orphanHelperEnv+"="+bin)
	out, err := helper.Output()
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(out)))
	if err != nil {
		t.Fatalf("helper printed %q, want a PID", out)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return // gone
		}
		// The state letter follows the parenthesized command name.
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z' {
			return
		}
		if time.Now().After(deadline) {
			if p, err := os.FindProcess(pid); err == nil {
				p.Kill()
			}
			t.Fatalf("replica %d outlived its harness: %s", pid, stat)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
