package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time of process pid, all threads.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it may not.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	// Fields 14 and 15 of stat(5), counted from the state field (3).
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the VmHWM (peak resident set) of process pid in MB.
func peakRSS(pid int) (float64, error) { return statusMB(pid, "VmHWM:") }

// resetPeakRSS restarts this process's VmHWM from its current resident
// set (clear_refs value 5, Linux 4.0 and later) and returns that resident
// set in MB.
func resetPeakRSS() (float64, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return statusMB(os.Getpid(), "VmHWM:")
}

// statusMB reads a kB figure of /proc/<pid>/status, such as "VmHWM:", in
// MB.
func statusMB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}
