package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on share their memory system with
// other tenants, and a busy neighbour slows it by up to a third for a
// minute or more at a time: on a 2-vCPU host, cold-suite's ops_per_s
// varied by a quarter across ten back-to-back runs of identical code. A
// fixed memory-bound loop slows in step with the workloads, so blperf
// times that loop at the start of the window and once a second during
// it, each time with the op loop paused so nothing else of the benchmark
// runs. Every timed end-to-end metric is reported at a reference host
// speed: raw × speed for durations, raw ÷ speed for rates, where speed
// is refProbeNs over the median probe cost. Raw values are printed
// beside the adjusted ones.

// refProbeNs is the probe's cost on the reference VM (2-vCPU Xeon at
// 2.0 GHz) in a quiet period, so adjusted numbers read like raw numbers
// measured there then.
const refProbeNs = 400_000

const (
	probeEvery = time.Second
	probeBurst = 40 // probes per pause, about 16 ms
)

var (
	probeBuf  = make([]uint64, 1<<19) // 4 MiB
	probeSink uint64
)

// probeOnce clears the buffer and reads it at random, returning the
// thread CPU time taken, which excludes any time the thread was not
// scheduled. Call it from a goroutine locked to its OS thread.
func probeOnce() float64 {
	start := threadCPUNs()
	clear(probeBuf)
	x, sum := uint64(1), uint64(0)
	for i := 0; i < 1<<16; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += probeBuf[(x>>20)&uint64(len(probeBuf)-1)]
	}
	probeSink += sum
	return float64(threadCPUNs() - start)
}

func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
