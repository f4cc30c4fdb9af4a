// Package ingest implements the streaming observation side of a
// long-running Entropy/IP deployment: a bounded, concurrent buffer of
// recently observed addresses that drift detection scores against the
// active model and retraining consumes as its training window.
//
// The paper models a snapshot of an operator's addressing plan; live
// address populations shift as operators roll out new variants. The
// Buffer is the bridge between the two worlds: writers (the /observe
// endpoint, the -ingest-file tail) push addresses at traffic rate, and
// readers take consistent snapshots for scoring and retraining without
// stopping the writers for more than a per-shard copy.
//
// Memory is bounded two ways: a sliding window of the last W accepted
// addresses (old observations are overwritten in ring order), and an
// optional per-/64 cap so that one chatty prefix cannot monopolize the
// window.
package ingest

import (
	"runtime"
	"sync"
	"sync/atomic"

	"entropyip/internal/ip6"
)

// DefaultWindowSize is the window size used when Config.WindowSize is
// zero.
const DefaultWindowSize = 16384

// Config configures a Buffer.
type Config struct {
	// WindowSize is the total number of addresses kept in the sliding
	// window across all shards. Zero means DefaultWindowSize.
	WindowSize int
	// MaxPer64 caps how many window slots addresses from one /64 prefix
	// may hold at a time; an observation beyond the cap replaces the
	// prefix's OLDEST window entry (counted in Stats.Deduped), so the
	// capped prefix's slots stay fresh instead of freezing on its first
	// MaxPer64 addresses. Zero disables the cap. The cap is what keeps a
	// single heavy-hitter /64 (one busy server, one NAT) from displacing
	// the rest of the live distribution.
	MaxPer64 int
	// Shards is the number of independently locked ring segments. Zero
	// picks min(GOMAXPROCS, 8). Addresses shard by /64 prefix hash, so the
	// per-/64 accounting stays shard-local.
	Shards int
}

func (c Config) windowSize() int {
	if c.WindowSize <= 0 {
		return DefaultWindowSize
	}
	return c.WindowSize
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Stats is a snapshot of buffer counters.
type Stats struct {
	// Observed counts every address offered to Add.
	Observed uint64 `json:"observed"`
	// Accepted counts addresses that entered the window.
	Accepted uint64 `json:"accepted"`
	// Deduped counts same-/64 window entries displaced early by the
	// per-/64 cap (a newer observation of the prefix replaced its
	// oldest).
	Deduped uint64 `json:"deduped"`
	// Evicted counts window slots overwritten by newer observations.
	Evicted uint64 `json:"evicted"`
	// Window is the number of addresses currently in the window.
	Window int `json:"window"`
	// WindowCapacity is the window's configured total size.
	WindowCapacity int `json:"window_capacity"`
	// Prefixes64 is the number of distinct /64 prefixes in the window.
	Prefixes64 int `json:"prefixes_64"`
}

// shard is one independently locked ring segment of the window.
type shard struct {
	mu    sync.Mutex
	ring  []ip6.Addr // fixed capacity, len == filled slots
	next  int        // ring write position once full
	per64 map[ip6.Prefix]int
	// slots tracks each /64's ring indices oldest-first, maintained only
	// when the per-/64 cap is on: a capped add replaces the prefix's
	// oldest slot in place so the window never freezes on stale entries.
	slots map[ip6.Prefix][]int
}

// removeSlot deletes the first occurrence of idx from s, preserving order.
func removeSlot(s []int, idx int) []int {
	for i, v := range s {
		if v == idx {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Buffer is a bounded concurrent observation buffer. All methods are safe
// for concurrent use.
type Buffer struct {
	cfg      Config
	shards   []*shard
	observed atomic.Uint64
	accepted atomic.Uint64
	deduped  atomic.Uint64
	evicted  atomic.Uint64
}

// New returns a Buffer with the given configuration.
func New(cfg Config) *Buffer {
	n := cfg.shards()
	total := cfg.windowSize()
	b := &Buffer{cfg: cfg, shards: make([]*shard, n)}
	for i := range b.shards {
		// Distribute capacities as evenly as possible; every shard holds
		// at least one slot so no /64 hash bucket is unbuffered.
		cap := total / n
		if i < total%n {
			cap++
		}
		if cap < 1 {
			cap = 1
		}
		b.shards[i] = &shard{
			ring:  make([]ip6.Addr, 0, cap),
			per64: make(map[ip6.Prefix]int),
		}
		if cfg.MaxPer64 > 0 {
			b.shards[i].slots = make(map[ip6.Prefix][]int)
		}
	}
	return b
}

// shardFor picks the shard of an address by its /64 prefix, so all
// addresses of one /64 share a shard and the per-/64 cap needs no global
// lock. The hash folds the top 64 bits (FNV-1a over the 8 prefix bytes).
func (b *Buffer) shardFor(a ip6.Addr) *shard {
	bs := a.Bytes()
	h := uint64(14695981039346656037)
	for _, c := range bs[:8] {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return b.shards[h%uint64(len(b.shards))]
}

// Add offers one observed address to the buffer. It returns true when the
// address entered the window — which, with the per-/64 cap, it always
// does: a capped prefix's newest observation replaces its oldest window
// entry rather than being dropped, so the window tracks the live
// distribution even for heavy-hitter prefixes. Add never blocks beyond
// its shard's mutex.
func (b *Buffer) Add(a ip6.Addr) bool {
	b.observed.Add(1)
	p := ip6.Prefix64(a)
	s := b.shardFor(a)

	s.mu.Lock()
	if b.cfg.MaxPer64 > 0 {
		if idxs := s.slots[p]; len(idxs) >= b.cfg.MaxPer64 {
			// At the cap: replace this prefix's oldest entry in place and
			// rotate it to the back of the prefix's slot queue.
			oldest := idxs[0]
			s.ring[oldest] = a
			s.slots[p] = append(idxs[1:], oldest)
			s.mu.Unlock()
			b.deduped.Add(1)
			b.accepted.Add(1)
			return true
		}
	}
	var idx int
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, a)
		idx = len(s.ring) - 1
	} else {
		old := s.ring[s.next]
		op := ip6.Prefix64(old)
		if s.per64[op] <= 1 {
			delete(s.per64, op)
		} else {
			s.per64[op]--
		}
		if s.slots != nil {
			if rest := removeSlot(s.slots[op], s.next); len(rest) == 0 {
				delete(s.slots, op)
			} else {
				s.slots[op] = rest
			}
		}
		s.ring[s.next] = a
		idx = s.next
		s.next = (s.next + 1) % len(s.ring)
		b.evicted.Add(1)
	}
	s.per64[p]++
	if s.slots != nil {
		s.slots[p] = append(s.slots[p], idx)
	}
	s.mu.Unlock()
	b.accepted.Add(1)
	return true
}

// AddBatch offers a batch of addresses and returns how many were accepted.
func (b *Buffer) AddBatch(addrs []ip6.Addr) int {
	n := 0
	for _, a := range addrs {
		if b.Add(a) {
			n++
		}
	}
	return n
}

// Snapshot returns a copy of the current window contents. Writers are only
// blocked shard by shard for the duration of one memcpy, never for the
// whole snapshot; the result is therefore consistent per shard but may
// interleave concurrent writes across shards — exactly the semantics a
// drift scorer over a traffic window needs. The returned slice is owned by
// the caller.
func (b *Buffer) Snapshot() []ip6.Addr {
	out := make([]ip6.Addr, 0, b.cfg.windowSize())
	for _, s := range b.shards {
		s.mu.Lock()
		out = append(out, s.ring...)
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of addresses currently in the window.
func (b *Buffer) Len() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the buffer's counters.
func (b *Buffer) Stats() Stats {
	st := Stats{
		Observed:       b.observed.Load(),
		Accepted:       b.accepted.Load(),
		Deduped:        b.deduped.Load(),
		Evicted:        b.evicted.Load(),
		WindowCapacity: b.cfg.windowSize(),
	}
	for _, s := range b.shards {
		s.mu.Lock()
		st.Window += len(s.ring)
		st.Prefixes64 += len(s.per64)
		s.mu.Unlock()
	}
	return st
}
