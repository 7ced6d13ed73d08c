//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// fsType names the filesystem holding dir, where fsync cost is set.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse", 0x01021997: "9p",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimes reads the machine's cumulative CPU time from /proc/stat
// (USER_HZ = 100): busy is time the CPUs ran anything, steal is time they
// wanted to run while the hypervisor ran other guests. ok is false where
// /proc/stat is unavailable.
func cpuTimes() (busy, steal time.Duration, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, false
	}
	var v [8]int64 // user nice system idle iowait irq softirq steal
	for k := range v {
		if v[k], err = strconv.ParseInt(string(f[k+1]), 10, 64); err != nil {
			return 0, 0, false
		}
	}
	tick := time.Second / 100
	return time.Duration(v[0]+v[1]+v[2]+v[5]+v[6]) * tick, time.Duration(v[7]) * tick, true
}
