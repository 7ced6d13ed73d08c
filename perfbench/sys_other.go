//go:build !linux

package main

import "time"

// fsType names the filesystem holding dir; only Linux is inspected.
func fsType(string) string { return "unknown" }

// peakRSSMB is not measured off Linux.
func peakRSSMB() float64 { return 0 }

// cpuTimes is not measured off Linux.
func cpuTimes() (busy, steal time.Duration, ok bool) { return 0, 0, false }
