package traffic

// The synthetic user population. Each arrival is attributed to a user id
// drawn from a population of (potentially) millions: with probability
// RevisitProb the arrival revisits a recently active user (drawn from a
// bounded recency ring, so recently frequent users are proportionally
// more likely to return — the rich-get-richer recency real request logs
// show), otherwise a fresh user is drawn uniformly from the population.
//
// Revisits are what make the population matter to the serving tier: every
// user owns a small personal profile of embedding rows (profileSize
// stateless Zipf draws per table, so the *marginal* row distribution of
// the whole stream keeps the trace tier's hotness class), and a fraction
// Affinity of the user's lookups come from that profile. A revisiting
// user therefore re-touches rows its earlier queries already pulled
// through its home node — the per-user embedding locality BagPipe-style
// caching exploits, layered on top of global Zipf hotness.
//
// Substitution statement: real per-user locality comes from stable user
// features re-embedded on every request; we substitute a per-user profile
// of Zipf-distributed rows (pure function of (Seed, user, table, slot)
// via stats.SplitSeed) and a revisit process over a recency ring. Both
// are deterministic, so the whole query stream remains a pure function of
// the configs.

import (
	"errors"
	"fmt"

	"dlrmsim/internal/stats"
)

// recentWindow bounds the recency ring revisits draw from; profileSize
// is each user's personal rank count per table.
const (
	recentWindow = 512
	profileSize  = 16
)

// saltProfile derives per-user profile streams.
const saltProfile uint64 = 0x9806F11E

// Population describes the synthetic user base behind an arrival stream.
type Population struct {
	// Users is the number of distinct user ids.
	Users int
	// RevisitProb is the probability an arrival revisits a recently
	// active user instead of drawing a fresh one, in [0, 1].
	RevisitProb float64
	// Affinity is the probability one lookup draws from the user's
	// profile instead of the global hotness distribution, in [0, 1].
	Affinity float64
	// Seed derives the user sequence and every profile stream.
	Seed uint64
}

// Validate reports every violation in the population config at once.
func (p Population) Validate() error {
	var errs []error
	if p.Users < 1 {
		errs = append(errs, fmt.Errorf("traffic: %d users", p.Users))
	}
	if !(p.RevisitProb >= 0 && p.RevisitProb <= 1) { // NaN fails too
		errs = append(errs, fmt.Errorf("traffic: revisit probability %g outside [0,1]", p.RevisitProb))
	}
	if !(p.Affinity >= 0 && p.Affinity <= 1) {
		errs = append(errs, fmt.Errorf("traffic: profile affinity %g outside [0,1]", p.Affinity))
	}
	return errors.Join(errs...)
}

// Visitors attributes an arrival sequence to users. Not safe for
// concurrent use; build one per simulation.
type Visitors struct {
	pop    Population
	rng    stats.RNG
	ring   []uint64 // last recentWindow arrivals' users (with repeats)
	next   int      // ring write cursor
	filled int      // entries populated so far
	visits map[uint64]int
}

// NewVisitors validates pop and returns a fresh visitor sequence.
func NewVisitors(pop Population) (*Visitors, error) {
	if err := pop.Validate(); err != nil {
		return nil, err
	}
	return &Visitors{
		pop:    pop,
		rng:    stats.SeededRNG(stats.SplitSeed(pop.Seed^0x0517E5, 0)),
		ring:   make([]uint64, recentWindow),
		visits: map[uint64]int{},
	}, nil
}

// Next draws the next arrival's user and returns the user's visit count
// including this arrival (1 = first visit). A fresh uniform draw that
// happens to collide with an earlier user still counts as a revisit —
// what matters downstream is whether the user's profile rows are warm.
func (v *Visitors) Next() (user uint64, visit int) {
	if v.filled > 0 && v.rng.Float64() < v.pop.RevisitProb {
		user = v.ring[v.rng.Intn(v.filled)]
	} else {
		user = uint64(v.rng.Intn(v.pop.Users))
	}
	v.visits[user]++
	v.ring[v.next] = user
	v.next = (v.next + 1) % len(v.ring)
	if v.filled < len(v.ring) {
		v.filled++
	}
	return user, v.visits[user]
}

// ProfileSize returns each user's profile rank count per table.
func (v *Visitors) ProfileSize() int { return profileSize }

// Affinity returns the configured profile affinity.
func (v *Visitors) Affinity() float64 { return v.pop.Affinity }

// ProfileStream returns the stateless generator that draws one profile
// slot's rank for (user, table, slot). Consumers sample their hotness
// distribution with it (Zipf, uniform, ...), so the marginal distribution
// of profile lookups matches fresh lookups while staying a pure function
// of (Seed, user, table, slot).
func (p Population) ProfileStream(user uint64, table, slot int) stats.RNG {
	return p.Profile(user).Stream(table, slot)
}

// UserProfile is one user's profile streams with the per-user key
// derived once, for callers that draw many profile lookups per arrival.
type UserProfile struct {
	key uint64
}

// Profile returns user's profile; its Stream(table, slot) equals
// ProfileStream(user, table, slot).
func (p Population) Profile(user uint64) UserProfile {
	return UserProfile{key: stats.SplitSeed(p.Seed^saltProfile, user)}
}

// Stream returns the generator of the profile slot (table, slot).
func (u UserProfile) Stream(table, slot int) stats.RNG {
	return stats.SeededRNG(stats.SplitSeed(u.key, uint64(table*profileSize+slot)))
}
