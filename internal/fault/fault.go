// Package fault is the deterministic fault-injection plan behind the
// chaos harness: a seeded description of which device and network
// failures fire, where, and when. The stack's simulated hardware
// (internal/simdisk, internal/msgr) exposes arming points that consume
// per-site Injectors; everything above them — blobstore, OSD, client,
// datapath — sees only the resulting errors, corrupted bytes, and
// latency, exactly as it would from real failing hardware.
//
// Determinism is the point. A Plan is a seed plus a Config; every site
// (one disk, one OSD endpoint) derives its own rand stream from
// seed⊕fnv(site), so the k-th decision at a given site is a pure
// function of the plan. A workload that issues operations in a
// deterministic order (single-queue fio, the walkers, any sequential
// test) therefore replays its failures exactly from the seed alone —
// which is what lets CI print a one-line reproducer instead of a
// shrug. Under concurrent queues the per-site decision sequences are
// still fixed; only their assignment to racing operations can vary
// with goroutine scheduling.
//
// Injected failures are distinguishable from genuine bugs: every error
// a fault hook returns wraps ErrInjected, so harnesses can tolerate
// exactly the failures they asked for and treat anything else as a
// defect.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// Kind enumerates the injectable failure modes.
type Kind uint8

const (
	// TornWrite persists only a prefix of a multi-sector disk write and
	// fails the command — the classic power-loss tear.
	TornWrite Kind = iota
	// BitRot flips one bit in a disk read's payload (transient), or in
	// the media itself when Config.PersistentRot is set (latent sector
	// corruption — what scrub exists to find).
	BitRot
	// ReadError fails a disk read loudly (unrecoverable read error).
	ReadError
	// LatencySpike stretches a disk command's completion time by
	// Config.Delay without failing it.
	LatencySpike
	// DropReply executes the request on the server but loses the reply:
	// the client sees an error for work that actually happened.
	DropReply
	// DelayReply stretches a reply's delivery by Config.Delay.
	DelayReply
	// DupReply delivers the reply twice; the duplicate is charged to the
	// wire but otherwise discarded by the caller.
	DupReply
	// ConnReset fails the call before the request reaches the server.
	ConnReset
	numKinds
)

var kindNames = [numKinds]string{
	"torn-write", "bit-rot", "read-error", "latency-spike",
	"drop-reply", "delay-reply", "dup-reply", "conn-reset",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// ErrInjected is the root of every error produced by an armed fault
// hook. Harness code matches it with errors.Is to separate tolerated,
// planned failures from real defects.
var ErrInjected = errors.New("fault: injected")

// The specific injected failures, each wrapping ErrInjected.
var (
	ErrTornWrite    = fmt.Errorf("%w: torn write (power lost mid-command)", ErrInjected)
	ErrReadFault    = fmt.Errorf("%w: unrecoverable read error", ErrInjected)
	ErrReplyDropped = fmt.Errorf("%w: reply dropped", ErrInjected)
	ErrConnReset    = fmt.Errorf("%w: connection reset", ErrInjected)
	ErrOSDDown      = fmt.Errorf("%w: osd down", ErrInjected)
)

// Window is a half-open span of virtual time [From, To).
type Window struct {
	From, To vtime.Time
}

func (w Window) contains(at vtime.Time) bool { return at >= w.From && at < w.To }

// DefaultDelay is the latency-spike / delayed-reply magnitude when
// Config.Delay is zero — a few multiples of a normal device command.
const DefaultDelay = 2 * time.Millisecond

// Config sets the per-operation firing probabilities and shapes of a
// plan's faults. The zero Config injects nothing.
type Config struct {
	// Prob maps each fault kind to its per-opportunity firing
	// probability in [0, 1]. Absent kinds never fire.
	Prob map[Kind]float64
	// Delay is the magnitude of LatencySpike and DelayReply faults
	// (DefaultDelay when zero).
	Delay time.Duration
	// PersistentRot makes BitRot scribble the media instead of the
	// in-flight read buffer, so the corruption survives until something
	// rewrites the sector — the latent-sector-error model scrub repairs.
	PersistentRot bool
	// Down lists virtual-time windows during which the site is dead:
	// every messenger call arriving inside a window fails with
	// ErrOSDDown, and calls after the window succeed again (an OSD
	// crash/restart cycle with its store intact).
	Down []Window
}

// prob returns the configured probability for k, clamped to [0, 1].
func (c Config) prob(k Kind) float64 {
	p := c.Prob[k]
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Plan is a seeded, replayable fault schedule. The zero value is not
// usable; build one with NewPlan.
type Plan struct {
	seed int64
	cfg  Config
}

// NewPlan binds a seed to a fault configuration.
func NewPlan(seed int64, cfg Config) *Plan {
	if cfg.Delay <= 0 {
		cfg.Delay = DefaultDelay
	}
	return &Plan{seed: seed, cfg: cfg}
}

// Seed returns the plan's seed — what a failing harness prints so the
// exact failure schedule can be replayed.
func (p *Plan) Seed() int64 { return p.seed }

// Injector derives the arming point for one site (a disk, an OSD
// messenger endpoint). The same plan and site always yield the same
// decision stream regardless of what other sites do.
func (p *Plan) Injector(site string) *Injector {
	return p.InjectorWith(site, p.cfg)
}

// InjectorWith is Injector with a site-specific Config override — how a
// harness crashes one OSD while the rest of the cluster only drops the
// occasional reply. Determinism is unaffected: the rand stream depends
// only on the plan seed and the site name.
func (p *Plan) InjectorWith(site string, cfg Config) *Injector {
	if cfg.Delay <= 0 {
		cfg.Delay = DefaultDelay
	}
	h := fnv.New64a()
	h.Write([]byte(site))
	seed := p.seed ^ int64(h.Sum64())
	return &Injector{
		site: site,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Injector is one site's armed decision stream. All methods are safe
// for concurrent use and nil-safe: a nil Injector injects nothing,
// so hooks need no armed/disarmed branch.
type Injector struct {
	site string
	cfg  Config

	mu  sync.Mutex
	rng *rand.Rand
}

// Hit reports whether fault k fires at this opportunity, consuming one
// draw from the site's decision stream only when k has a nonzero
// probability (so disabling one fault kind does not shift the others'
// decisions). A firing is counted in fault_injections_total.
func (in *Injector) Hit(k Kind) bool {
	if in == nil {
		return false
	}
	p := in.cfg.prob(k)
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	hit := in.rng.Float64() < p
	in.mu.Unlock()
	if hit {
		mInj[k].Inc()
	}
	return hit
}

// HitAt is Hit stamped with the virtual time of the opportunity: a
// firing is additionally journalled as a fault-fired event at `at`, so
// the health plane's event timeline shows when each fault landed. The
// arming points (simdisk, msgr) use this form; Hit remains for callers
// without a timestamp in hand. Alloc-free: the site name and the kind's
// String are retained/static.
func (in *Injector) HitAt(at vtime.Time, k Kind) bool {
	if !in.Hit(k) {
		return false
	}
	telemetry.Log.Append(at, telemetry.EventFaultFired, in.site, k.String(), 1)
	return true
}

// Delay returns the configured latency-spike magnitude.
func (in *Injector) Delay() time.Duration {
	if in == nil {
		return 0
	}
	return in.cfg.Delay
}

// PersistentRot reports whether BitRot corrupts the media rather than
// the in-flight buffer.
func (in *Injector) PersistentRot() bool {
	return in != nil && in.cfg.PersistentRot
}

// Down reports whether the site is inside a crash window at virtual
// time at. Each rejected call is counted under the osd-down label.
func (in *Injector) Down(at vtime.Time) bool {
	if in == nil {
		return false
	}
	for _, w := range in.cfg.Down {
		if w.contains(at) {
			mDown.Inc()
			telemetry.Log.Append(at, telemetry.EventFaultFired, in.site, "osd-down", 1)
			return true
		}
	}
	return false
}

// Intn draws a uniform int in [0, n) from the site's decision stream —
// the tear point of a torn write, the target of a bit flip.
func (in *Injector) Intn(n int) int {
	if in == nil || n <= 1 {
		return 0
	}
	in.mu.Lock()
	v := in.rng.Intn(n)
	in.mu.Unlock()
	return v
}

// FlipBit flips one uniformly chosen bit of p in place and returns the
// affected byte index (-1 for an empty buffer).
func (in *Injector) FlipBit(p []byte) int {
	if in == nil || len(p) == 0 {
		return -1
	}
	in.mu.Lock()
	bit := in.rng.Intn(len(p) * 8)
	in.mu.Unlock()
	p[bit/8] ^= 1 << (bit % 8)
	return bit / 8
}
