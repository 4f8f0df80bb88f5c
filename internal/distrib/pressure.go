package distrib

import (
	"sync"
	"time"
)

// fleetPressure is the fleet's memory pressure: each worker's latest
// heartbeat reading, and the gate that holds dispatch back while one is
// over the threshold. It holds the run's end and tally, not the
// coordinator, and so does the scheduler that consults the gate.
type fleetPressure struct {
	grace time.Duration   // HeartbeatGrace: older readings are ignored
	ratio float64         // MemPauseRatio
	done  <-chan struct{} // closed when the run finishes
	run   *tally          // counts the pauses

	mu       sync.Mutex
	readings map[string]workerPressure
}

// workerPressure is one worker's latest heartbeat memory reading.
type workerPressure struct {
	ratio float64
	at    time.Time
}

// note folds one heartbeat's memory reading into the fleet pressure map.
// Workers without a limit report ratio 0: they cannot be "full", so for
// a fleet of them the gate is armed and never shuts.
func (p *fleetPressure) note(key string, memBytes, memLimit int64) {
	ratio := 0.0
	if memLimit > 0 {
		ratio = float64(memBytes) / float64(memLimit)
	}
	p.mu.Lock()
	p.readings[key] = workerPressure{ratio: ratio, at: time.Now()}
	p.mu.Unlock()
}

// over reports whether any worker's fresh memory reading is at or above
// MemPauseRatio. Readings older than HeartbeatGrace are ignored:
// heartbeats only flow while a job runs, so a worker that went idle (or
// away) must not hold the dispatch gate shut forever.
func (p *fleetPressure) over() bool {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, r := range p.readings {
		if now.Sub(r.at) > p.grace {
			delete(p.readings, key)
			continue
		}
		if r.ratio >= p.ratio {
			return true
		}
	}
	return false
}

// gate blocks new job dispatch while the fleet is over the
// memory-pressure threshold — backpressure: an overloaded fleet drains
// its in-flight jobs instead of being handed more. Returns false if
// the run finished while waiting. The wait self-limits: pressure
// readings expire at HeartbeatGrace, so the gate reopens within one
// grace period even if every worker goes silent.
func (p *fleetPressure) gate() bool {
	if !p.over() {
		return true
	}
	p.run.add(func(r *CoordinatorResult) { r.DispatchPaused++ })
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return false
		case <-t.C:
			if !p.over() {
				return true
			}
		}
	}
}
