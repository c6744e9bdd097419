//go:build !linux

package chaos

import "os/exec"

// setPdeathsig is Linux-only; elsewhere a drill's servers die only
// through the fleet's teardown.
func setPdeathsig(cmd *exec.Cmd) {}
