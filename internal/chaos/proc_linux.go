package chaos

import (
	"os/exec"
	"syscall"
)

// setPdeathsig has the kernel SIGKILL the child when the harness dies,
// so a drill cut short (a test timeout, a killed blchaos) leaves no
// server behind.
func setPdeathsig(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
