package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// On a virtual machine an idle CPU halts, and waking it again — for the
// server's next request, or the generator's next due read — waits for
// the host to run it, which takes longer the busier the host's other
// tenants keep it. On a two-vCPU virtual machine (Intel Xeon, 2.0 GHz)
// shared with other tenants that made serve_mixed's median read latency
// 5–18 ms instead of 0.6 ms for whole runs at a time. The benchmark therefore keeps every CPU busy at the
// lowest scheduling priority for the whole run, as a guest booted with
// idle=poll would: the spinning threads run only when no other thread
// wants the CPU, and the figures describe CPUs that never halt.
//
// The spinning threads also measure the machine: each repeats a fixed
// floating-point loop and counts how many it finishes per millisecond
// of its own CPU time. That rate falls when the machine runs slower per
// instruction — another tenant busy on the same physical core or cache
// — which moves every time and CPU figure of the run with it.

// refHostSpeed is the host speed, in spinLoop runs per ms of CPU time,
// that the gated time and rate figures are given at: about what that
// virtual machine read in its faster spells. Each such figure
// is scaled by hostSpeed/refHostSpeed — times multiplied, closed-loop
// rates divided — so that a run on a machine in its slow spell reads
// about as a run in its fast one. On another machine the scale differs
// by a constant factor, which comparisons between runs there cancel.
const refHostSpeed = 40.0

// schedIdle is Linux's SCHED_IDLE policy.
const schedIdle = 5

// keepAwakeFlag makes the benchmark binary act as its own spinning
// child (see keepAwake).
const keepAwakeFlag = "-keep-awake"

// spinner is the running keep-awake child.
type spinner struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// keepAwake starts a child that runs one SCHED_IDLE spinning thread per
// CPU until stop, so that its CPU time counts neither against the server
// nor in the generator's own rusage. It returns once the threads spin,
// or an error if they cannot.
func keepAwake() (*spinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &spinner{cmd: exec.Command(self, keepAwakeFlag)}
	if s.in, err = s.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.out = bufio.NewReader(out)
	var msg bytes.Buffer
	s.cmd.Stderr = &msg
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	if line, _ := s.out.ReadString('\n'); line != "spinning\n" {
		s.stop()
		return nil, fmt.Errorf("keep-awake child: %s", strings.TrimSpace(msg.String()))
	}
	return s, nil
}

// read returns the loops the spinning threads have finished and the CPU
// time they have used, in ns, so far.
func (s *spinner) read() (loops, cpuNS int64, err error) {
	if _, err := io.WriteString(s.in, "read\n"); err != nil {
		return 0, 0, err
	}
	line, err := s.out.ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	_, err = fmt.Sscan(line, &loops, &cpuNS)
	return loops, cpuNS, err
}

// stop ends the child and waits for it.
func (s *spinner) stop() {
	s.in.Close()
	_ = s.cmd.Wait()
}

// spinIdle is the child's body: it spins at SCHED_IDLE on every CPU,
// answers each line on stdin with its loop and CPU counts, and returns
// when stdin closes. If the policy cannot be set it fails rather than
// spin at normal priority.
func spinIdle() error {
	n := runtime.NumCPU()
	loops := make([]atomic.Int64, n)
	cpuNS := make([]atomic.Int64, n)
	ready := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param [1]int32 // struct sched_param{.sched_priority = 0}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param[0])))
			if e != 0 {
				ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
				return
			}
			ready <- nil
			var a [32 * 32]float64
			for {
				spinLoop(&a)
				loops[i].Add(1)
				cpuNS[i].Store(threadCPU())
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			return err
		}
	}
	fmt.Println("spinning")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var l, c int64
		for i := 0; i < n; i++ {
			l += loops[i].Load()
			c += cpuNS[i].Load()
		}
		fmt.Println(l, c)
	}
	return sc.Err()
}

// spinLoop is the spinning threads' fixed unit of work: 20 rank-one
// updates of a 32×32 matrix, a few µs, shaped like the program's
// covariance scan but written here so that it does not change with it.
func spinLoop(a *[32 * 32]float64) {
	for k := 0; k < 20; k++ {
		for i := 0; i < 32; i++ {
			xi := 1 + float64(i)/32
			row := a[i*32 : (i+1)*32]
			for j := range row {
				row[j] += xi * (1 + float64(j)/32)
			}
		}
	}
}

// threadCPU is the calling thread's CPU time in ns.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
