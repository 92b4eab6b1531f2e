package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was built on is a two-vCPU virtual machine. When
// a vCPU has nothing to run it halts, the hypervisor takes its core away,
// and the next wake-up - every reply a one-client workload waits for - costs
// whatever the host needs to schedule it again: two threads started from
// idle ran on one core for their first 0.7 s. That cost is the host's and
// changes from minute to minute. So, as a host tuned for latency runs with
// idle=poll, the benchmark keeps every CPU out of the halt state with one
// spinning process per CPU in the kernel's SCHED_IDLE class, which runs only
// when nothing else wants the CPU and is preempted the moment anything does.
// The spinners are processes of their own, so their CPU time is in none of
// the benchmark's counts.

const schedIdle = 5 // SCHED_IDLE in <sched.h>

// spin is the child's whole life: pin to one CPU, drop to SCHED_IDLE, loop
// until killed or orphaned (a benchmark killed from outside cannot stop its
// spinners, so they watch for it). It returns only on error; a spinner at
// normal priority would compete with the system under test, so there is
// none then.
func spin(cpu int) error {
	parent := os.Getppid()
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler: %w", errno)
	}
	os.Stdout.Write([]byte{1}) // tells the parent this spinner is in place
	for os.Getppid() == parent {
		for t := time.Now(); time.Since(t) < 10*time.Millisecond; {
		}
	}
	return nil
}

// startSpinners starts one spinner per CPU and returns how many are in
// place and the function that kills them and waits for each. A spinner that
// cannot start is reported and done without: the numbers then hold the
// host's idle behaviour too.
func startSpinners(n int) (running int, stop func()) {
	exe, err := os.Executable()
	var cmds []*exec.Cmd
	for cpu := 0; err == nil && cpu < n; cpu++ {
		cmd := exec.Command(exe, "-spin", strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		var ready io.ReadCloser
		if ready, err = cmd.StdoutPipe(); err != nil {
			break
		}
		if err = cmd.Start(); err != nil {
			break
		}
		cmds = append(cmds, cmd)
		if _, rerr := ready.Read(make([]byte, 1)); rerr == nil {
			running++
		}
	}
	if running < n {
		warn("%d of %d idle spinners in place (%v): latencies include the host's wake-ups", running, n, err)
	}
	return running, func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}
