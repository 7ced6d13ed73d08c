// Fixture for the timerleak analyzer: time.After in loops and time.Tick
// anywhere.
package serv

import "time"

func afterInLoop(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-time.After(time.Second): // want `time\.After inside a loop allocates a timer every iteration`
		}
	}
}

func tickAnywhere() <-chan time.Time {
	return time.Tick(time.Second) // want `time\.Tick leaks its Ticker`
}

func afterOnce(timeout time.Duration) {
	<-time.After(timeout) // single shot outside a loop: fine
}

func reaperPattern(done chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
}

func litInLoopIsCharged(n int) {
	for i := 0; i < n; i++ {
		wait := func() { <-time.After(time.Millisecond) } // charged to the literal, not the loop
		wait()
	}
}

func deadlineCompareIsNotATimer(deadlines []time.Time) bool {
	now := time.Now()
	for _, d := range deadlines {
		if now.After(d) { // time.Time.After is a comparison, not a timer
			return true
		}
	}
	return false
}

func allowedAfter(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-time.After(time.Minute): //accu:allow ctxflow -- long-period watchdog, one live timer is acceptable
		}
	}
}
