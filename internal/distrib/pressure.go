package distrib

import "time"

// workerPressure is one worker's latest heartbeat memory reading.
type workerPressure struct {
	ratio float64
	at    time.Time
}

// notePressure folds one heartbeat's memory reading into the fleet
// pressure map. Workers without a limit report ratio 0: they cannot be
// "full", so for a fleet of them the gate is armed and never shuts.
func (co *coordinator) notePressure(key string, memBytes, memLimit int64) {
	ratio := 0.0
	if memLimit > 0 {
		ratio = float64(memBytes) / float64(memLimit)
	}
	co.mu.Lock()
	co.pressure[key] = workerPressure{ratio: ratio, at: time.Now()}
	co.mu.Unlock()
}

// overPressure reports whether any worker's fresh memory reading is at
// or above MemPauseRatio. Readings older than HeartbeatGrace are
// ignored: heartbeats only flow while a job runs, so a worker that
// went idle (or away) must not hold the dispatch gate shut forever.
func (co *coordinator) overPressure() bool {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	for key, p := range co.pressure {
		if now.Sub(p.at) > co.opts.HeartbeatGrace {
			delete(co.pressure, key)
			continue
		}
		if p.ratio >= co.opts.MemPauseRatio {
			return true
		}
	}
	return false
}

// dispatchGate blocks new job dispatch while the fleet is over the
// memory-pressure threshold — backpressure: an overloaded fleet drains
// its in-flight jobs instead of being handed more. Returns false if
// the run finished while waiting. The wait self-limits: pressure
// readings expire at HeartbeatGrace, so the gate reopens within one
// grace period even if every worker goes silent.
func (co *coordinator) dispatchGate() bool {
	if !co.overPressure() {
		return true
	}
	co.metrics.dispatchPaused.Inc()
	co.mu.Lock()
	co.res.DispatchPaused++
	co.mu.Unlock()
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-co.done:
			return false
		case <-t.C:
			if !co.overPressure() {
				return true
			}
		}
	}
}
