// Package sim is the time.Tick autofix golden fixture: one time.Tick
// call whose machine-applicable fix rewrites it to time.NewTicker(d).C.
package sim

import "time"

func poll(stop chan struct{}) {
	for {
		select {
		case <-time.Tick(5 * time.Millisecond):
		case <-stop:
			return
		}
	}
}
