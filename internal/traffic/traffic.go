// Package traffic generates deterministic open-loop query arrival streams
// for the cluster serving tier: Poisson and Markov-modulated (MMPP)
// processes with diurnal ramps and flash-crowd bursts, plus a synthetic
// user population whose revisit behavior layers per-user embedding
// locality on the trace tier's Zipf hotness classes.
//
// "Open-loop" means arrivals are independent of the system's state — the
// load a production fleet faces, where users do not wait for each other's
// responses. Every query in the closed-loop simulators is drawn from a
// fixed count at a fixed mean rate; here the instantaneous rate is a
// deterministic function of simulated time,
//
//	rate(t) = RatePerMs · diurnal(t) · burst(t) · flash(t),
//
// and arrivals are drawn from the corresponding non-homogeneous Poisson
// process by thinning: candidates at the peak rate, each accepted with
// probability rate(t)/peak. Burst and flash episodes are alternating
// exponential on/off windows materialized from dedicated split streams,
// so every window boundary — and therefore every arrival — is a pure
// function of Config.Seed via stats.SplitSeed. Two streams built from the
// same config emit byte-identical arrival sequences no matter what else
// runs in the process, which is the contract the experiment runner's
// -workers byte-identity guarantee rests on.
package traffic

import (
	"errors"
	"fmt"
	"math"

	"dlrmsim/internal/check"
	"dlrmsim/internal/stats"
)

// Model selects the arrival process family.
type Model int

const (
	// Poisson is a (possibly diurnally/flash-modulated) Poisson process
	// with no burst state.
	Poisson Model = iota
	// MMPP is a two-state Markov-modulated Poisson process: the rate
	// multiplies by BurstFactor during exponentially distributed burst
	// dwells separated by exponentially distributed calm dwells.
	MMPP
)

// String returns the model's CLI spelling.
func (m Model) String() string {
	switch m {
	case Poisson:
		return "poisson"
	case MMPP:
		return "mmpp"
	default:
		return "invalid"
	}
}

// ParseModel resolves an arrival model from its CLI spelling.
func ParseModel(name string) (Model, error) {
	switch name {
	case "poisson":
		return Poisson, nil
	case "mmpp":
		return MMPP, nil
	}
	return 0, fmt.Errorf("traffic: unknown arrival model %q", name)
}

// Config describes one arrival stream. RatePerMs is the base rate; the
// modulation terms are all optional and multiply it.
type Config struct {
	// Model is the process family (Poisson or MMPP).
	Model Model
	// RatePerMs is the base mean arrival rate in queries per simulated ms.
	RatePerMs float64
	// BurstFactor multiplies the rate while the MMPP burst state is
	// active (> 1; MMPP only).
	BurstFactor float64
	// BurstEveryMs is the mean calm dwell between burst episodes (MMPP
	// only).
	BurstEveryMs float64
	// BurstMeanMs is the mean burst dwell (MMPP only).
	BurstMeanMs float64
	// DayMs is the diurnal period; the rate ramps as
	// 1 - DiurnalAmp·cos(2πt/DayMs), so a day starts at its overnight
	// trough and peaks mid-period. 0 disables the ramp.
	DayMs float64
	// DiurnalAmp is the diurnal swing in [0, 1): peak/trough rates are
	// (1±Amp) times the base.
	DiurnalAmp float64
	// FlashEveryMs is the mean gap between flash-crowd episodes (0
	// disables them).
	FlashEveryMs float64
	// FlashMeanMs is the mean flash-crowd duration.
	FlashMeanMs float64
	// FlashFactor multiplies the rate during a flash crowd (>= 1).
	FlashFactor float64
	// Seed derives every stream (candidates, thinning coins, episode
	// windows) via stats.SplitSeed.
	Seed uint64
}

// seed salts for the stream's independent split streams.
const (
	saltArrival uint64 = 0xA551F
	saltBurst   uint64 = 0xB0257
	saltFlash   uint64 = 0xF1A58
)

// Validate reports every violation in the stream config at once. Every
// float must be finite, and so must the thinning peak they multiply to:
// a NaN or infinite knob or peak would leave the thinning loop in Next
// unable to accept a candidate. Fields of disabled features must be
// zero, so a flag typo (burst knobs without -arrivals mmpp, flash
// duration without a flash interval) surfaces as an error instead of
// being silently ignored.
func (c Config) Validate() error {
	var errs []error
	if c.Model != Poisson && c.Model != MMPP {
		errs = append(errs, fmt.Errorf("traffic: invalid arrival model %d", c.Model))
	}
	if !check.Positive(c.RatePerMs) {
		errs = append(errs, fmt.Errorf("traffic: arrival rate %g/ms (need finite > 0)", c.RatePerMs))
	}
	switch c.Model {
	case MMPP:
		if !(c.BurstFactor > 1 && check.Finite(c.BurstFactor)) {
			errs = append(errs, fmt.Errorf("traffic: MMPP burst factor %g (want finite > 1)", c.BurstFactor))
		}
		if !check.Positive(c.BurstEveryMs) || !check.Positive(c.BurstMeanMs) {
			errs = append(errs, fmt.Errorf("traffic: MMPP dwell times must be finite and positive (calm %g ms, burst %g ms)",
				c.BurstEveryMs, c.BurstMeanMs))
		}
	default:
		if c.BurstFactor != 0 || c.BurstEveryMs != 0 || c.BurstMeanMs != 0 {
			errs = append(errs, fmt.Errorf("traffic: burst parameters need the mmpp arrival model"))
		}
	}
	if !(c.DiurnalAmp >= 0 && c.DiurnalAmp < 1) {
		errs = append(errs, fmt.Errorf("traffic: diurnal amplitude %g outside [0,1)", c.DiurnalAmp))
	}
	if !check.NonNeg(c.DayMs) {
		errs = append(errs, fmt.Errorf("traffic: diurnal period %g ms (need finite >= 0)", c.DayMs))
	}
	if c.DiurnalAmp > 0 && c.DayMs <= 0 {
		errs = append(errs, fmt.Errorf("traffic: diurnal amplitude needs a positive day period"))
	}
	if !check.NonNeg(c.FlashEveryMs) {
		errs = append(errs, fmt.Errorf("traffic: flash interval %g ms (need finite >= 0)", c.FlashEveryMs))
	}
	if c.FlashEveryMs > 0 {
		if !check.Positive(c.FlashMeanMs) {
			errs = append(errs, fmt.Errorf("traffic: flash crowds need a finite positive mean duration"))
		}
		if !(c.FlashFactor >= 1 && check.Finite(c.FlashFactor)) {
			errs = append(errs, fmt.Errorf("traffic: flash factor %g (want finite >= 1)", c.FlashFactor))
		}
	} else if c.FlashMeanMs != 0 || c.FlashFactor != 0 {
		errs = append(errs, fmt.Errorf("traffic: flash parameters need a positive flash interval"))
	}
	if p := c.peak(); len(errs) == 0 && !check.Finite(p) {
		errs = append(errs, fmt.Errorf("traffic: thinning peak rate %g/ms (rate × (1+diurnal) × burst × flash; need finite)", p))
	}
	return errors.Join(errs...)
}

// peak is the thinning envelope, the supremum of the stream's rate:
// RatePerMs·(1+DiurnalAmp), times BurstFactor under MMPP and FlashFactor
// when flash crowds are on.
func (c Config) peak() float64 {
	p := c.RatePerMs * (1 + c.DiurnalAmp)
	if c.Model == MMPP {
		p *= c.BurstFactor
	}
	if c.FlashEveryMs > 0 {
		p *= c.FlashFactor
	}
	return p
}

// Stream draws one arrival sequence. Not safe for concurrent use; build
// one Stream per simulation.
type Stream struct {
	cfg   Config
	rng   stats.RNG // candidate gaps and thinning coins
	now   float64
	peak  float64
	burst stats.Timeline // empty unless MMPP
	flash stats.Timeline // empty unless flash crowds are on
}

// NewStream validates cfg and returns a fresh stream positioned at t = 0.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:  cfg,
		rng:  stats.SeededRNG(stats.SplitSeed(cfg.Seed^saltArrival, 0)),
		peak: cfg.peak(),
	}
	if cfg.Model == MMPP {
		s.burst.Seed(cfg.Seed^saltBurst, 0, cfg.BurstEveryMs, cfg.BurstMeanMs, 0)
	}
	if cfg.FlashEveryMs > 0 {
		s.flash.Seed(cfg.Seed^saltFlash, 0, cfg.FlashEveryMs, cfg.FlashMeanMs, 0)
	}
	return s, nil
}

// RateAt returns the instantaneous arrival rate at t in queries per ms.
// Where the diurnal phase 2πt/DayMs overflows (a far t, or a day shorter
// than the clock can resolve) the cosine is NaN, and the ramp takes its
// mean over a day, 1, instead: a NaN rate would leave Next's thinning
// coin nothing to land below.
func (s *Stream) RateAt(t float64) float64 {
	rate := s.cfg.RatePerMs
	if s.cfg.DiurnalAmp > 0 {
		if phase := 2 * math.Pi * t / s.cfg.DayMs; !math.IsInf(phase, 0) {
			rate *= 1 - s.cfg.DiurnalAmp*math.Cos(phase)
		}
	}
	if _, on := s.burst.At(t); on {
		rate *= s.cfg.BurstFactor
	}
	if _, on := s.flash.At(t); on {
		rate *= s.cfg.FlashFactor
	}
	return rate
}

// PeakRate returns the thinning envelope — the supremum of RateAt.
func (s *Stream) PeakRate() float64 { return s.peak }

// Next returns the next arrival time. Arrivals are strictly increasing
// while finite (exponential gaps are almost surely positive) and
// unbounded; the caller decides when the stream's horizon is reached.
// Once the candidate clock overflows to +Inf, every later call returns
// +Inf without thinning: an episode timeline asked for its state at +Inf
// would never finish drawing windows.
func (s *Stream) Next() float64 {
	for {
		s.now += s.rng.ExpFloat64() / s.peak
		if math.IsInf(s.now, 1) || s.rng.Float64()*s.peak < s.RateAt(s.now) {
			return s.now
		}
	}
}

// BurstWindows returns the MMPP burst episodes starting before until
// (nil for Poisson streams). The windows are a pure function of the
// config seed — "bursts occur exactly where seeded".
func (s *Stream) BurstWindows(until float64) []stats.Window {
	return s.burst.Before(until)
}

// FlashWindows returns the flash-crowd episodes starting before until
// (nil when flash crowds are off).
func (s *Stream) FlashWindows(until float64) []stats.Window {
	return s.flash.Before(until)
}
