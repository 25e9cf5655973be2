package disk

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultPlanConfig parameterizes a deterministic fault schedule. All
// probabilities are per disk operation; one uniform draw per operation
// is partitioned across the fault kinds, so a plan replays bit-identically
// for the same seed and the same operation sequence.
type FaultPlanConfig struct {
	Seed int64

	// PTransient is the chance an operation starts a transient episode:
	// the touched page fails TransientLen consecutive operations with
	// ErrTransient, then recovers. Bounded retry in the buffer pool can
	// ride these out.
	PTransient   float64
	TransientLen int // episode length; default 2

	// PPermanent is the chance a read/write condemns its page: every
	// later read/write of that page fails with ErrPermanent for the
	// lifetime of the plan.
	PPermanent float64

	// PSpike is the chance an operation stalls for SpikeDur before
	// succeeding (a latency spike, not an error).
	PSpike   float64
	SpikeDur time.Duration // default 50µs

	// PTorn is the chance a write tears: the disk keeps only the first
	// TornPrefix bytes and the write reports ErrTornWrite.
	PTorn float64

	// MaxFaults, when > 0, caps the number of injection decisions
	// (episode starts, condemnations, spikes, torn writes). Already
	// condemned pages keep failing past the cap — permanence is
	// permanent.
	MaxFaults int64
}

// WithDefaults fills unset tuning knobs.
func (c FaultPlanConfig) WithDefaults() FaultPlanConfig {
	if c.TransientLen <= 0 {
		c.TransientLen = 2
	}
	if c.SpikeDur <= 0 {
		c.SpikeDur = 50 * time.Microsecond
	}
	return c
}

// FaultStats counts what a plan injected, by kind.
type FaultStats struct {
	Ops            int64 `json:"ops"`             // disk operations observed
	Injected       int64 `json:"injected"`        // injection decisions (counted against MaxFaults)
	Transient      int64 `json:"transient"`       // transient failures returned (episodes × length)
	PermanentPages int64 `json:"permanent_pages"` // pages condemned
	PermanentHits  int64 `json:"permanent_hits"`  // failures returned for condemned pages
	Spikes         int64 `json:"spikes"`          // latency spikes served
	Torn           int64 `json:"torn"`            // torn writes
}

// FaultPlan is a seeded, replayable fault injector. Install it with
// Sim.SetFault(plan.Fn()) or FileDisk.SetFault(plan.Fn()). The plan is
// internally locked: the disk calls the FaultFunc concurrently from
// every pool shard.
type FaultPlan struct {
	mu        sync.Mutex
	cfg       FaultPlanConfig
	rng       *rand.Rand
	episodes  map[PageID]int      // remaining transient failures per page
	condemned map[PageID]struct{} // permanently failed pages
	stats     FaultStats
	sleep     func(time.Duration) // test hook; time.Sleep in production
}

// NewFaultPlan builds a plan from cfg (defaults applied).
func NewFaultPlan(cfg FaultPlanConfig) *FaultPlan {
	cfg = cfg.WithDefaults()
	return &FaultPlan{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		episodes:  make(map[PageID]int),
		condemned: make(map[PageID]struct{}),
		sleep:     time.Sleep,
	}
}

// Stats returns a snapshot of the injection counters.
func (p *FaultPlan) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Fn returns the FaultFunc to install on a disk.
func (p *FaultPlan) Fn() FaultFunc { return p.decide }

func (p *FaultPlan) decide(op string, id PageID) error {
	p.mu.Lock()
	p.stats.Ops++

	// Standing state first: an in-progress transient episode or a
	// condemned page fails regardless of the cap, so a retry of the
	// same operation sees a coherent device.
	if n, ok := p.episodes[id]; ok && n > 0 {
		if n == 1 {
			delete(p.episodes, id)
		} else {
			p.episodes[id] = n - 1
		}
		p.stats.Transient++
		p.mu.Unlock()
		return fmt.Errorf("%w (%s page %d)", ErrTransient, op, id)
	}
	if _, bad := p.condemned[id]; bad && op != "alloc" {
		p.stats.PermanentHits++
		p.mu.Unlock()
		return fmt.Errorf("%w (%s page %d)", ErrPermanent, op, id)
	}

	if p.cfg.MaxFaults > 0 && p.stats.Injected >= p.cfg.MaxFaults {
		p.mu.Unlock()
		return nil
	}

	r := p.rng.Float64()
	cut := p.cfg.PTransient
	if r < cut {
		p.stats.Injected++
		p.stats.Transient++
		if p.cfg.TransientLen > 1 {
			p.episodes[id] = p.cfg.TransientLen - 1
		}
		p.mu.Unlock()
		return fmt.Errorf("%w (%s page %d)", ErrTransient, op, id)
	}
	cut += p.cfg.PPermanent
	if r < cut && op != "alloc" {
		p.stats.Injected++
		p.stats.PermanentPages++
		p.stats.PermanentHits++
		p.condemned[id] = struct{}{}
		p.mu.Unlock()
		return fmt.Errorf("%w (%s page %d)", ErrPermanent, op, id)
	}
	cut += p.cfg.PSpike
	if r < cut {
		p.stats.Injected++
		p.stats.Spikes++
		d := p.cfg.SpikeDur
		sleep := p.sleep
		p.mu.Unlock()
		sleep(d) // outside p.mu: a spike must not serialize other shards' faults
		return nil
	}
	cut += p.cfg.PTorn
	if r < cut && op == "write" {
		p.stats.Injected++
		p.stats.Torn++
		p.mu.Unlock()
		return fmt.Errorf("%w (page %d)", ErrTornWrite, id)
	}
	p.mu.Unlock()
	return nil
}
