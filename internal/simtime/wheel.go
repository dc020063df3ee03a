package simtime

import "math/bits"

// The event queue is a Varghese–Lauck hierarchical timer wheel
// (DESIGN.md §4.12). Eleven levels of 64 slots each, keyed on nanosecond
// ticks: level 0 slots are 1 ns wide, so every event in a level-0 slot
// shares an exact firing time and the slot's intrusive FIFO list *is* the
// dispatch order. Level ℓ slots are 64^ℓ ns wide; eleven 6-bit levels
// span 66 bits, so every non-negative int64 tick has a wheel slot and no
// event is ever past the horizon.
//
// Level selection is XOR-based (the tokio/Linux-kernel scheme): an event
// at tick t lives at the level of the highest bit in which t differs
// from the cursor `elapsed`, i.e. the level whose slot walls t and the
// cursor already share. This makes slot occupancy unambiguous — all
// events at one level sit inside the cursor's aligned 64-slot
// super-bucket, so slot index (t >> 6ℓ) & 63 never collides across
// bucket generations — and gives the ordering invariant the FIFO
// contract rests on: for a fixed tick t, Len64(t^elapsed) is
// non-increasing as elapsed advances, so later inserts of the same tick
// always land at the same or a lower level. Cascades therefore push
// events to the *front* of their new slot: everything already resident
// at the lower level was inserted later and must dispatch after them.
//
// Schedule and cancel are O(1) (list append / unlink); finding the next
// event is a bitmap scan over eleven words plus amortized-O(1) cascading.

const (
	levelBits     = 6
	slotsPerLevel = 1 << levelBits // 64
	slotMask      = slotsPerLevel - 1
	numLevels     = 11 // 11 × 6 bits ≥ 63: every non-negative int64 tick fits
	wheelSlots    = numLevels * slotsPerLevel
)

// levelSlot maps a tick to its wheel position given the current cursor:
// the level and the slot index into head/tail. tick >= elapsed is a caller
// invariant (nothing is ever scheduled in the past).
func levelSlot(tick, elapsed uint64) (lvl, idx int) {
	if x := tick ^ elapsed; x != 0 {
		lvl = (bits.Len64(x) - 1) / levelBits
	}
	return lvl, lvl*slotsPerLevel + int((tick>>(uint(lvl)*levelBits))&slotMask)
}

// markOccupied sets slot idx's bit in its level's occupancy bitmap and
// the level's bit in the summary mask.
func (s *Scheduler) markOccupied(lvl, idx int) {
	s.occupied[lvl] |= 1 << (uint(idx) & slotMask)
	s.levelMask |= 1 << uint(lvl)
}

// enqueue appends e (with e.at already set) to its wheel slot's list —
// newest last, so equal ticks stay FIFO since seq increases with every
// schedule — and bumps the pending count.
func (s *Scheduler) enqueue(e *Event) {
	lvl, idx := levelSlot(uint64(e.at), s.elapsed)
	e.slot = int32(idx)
	e.next = nil
	e.prev = s.tail[idx]
	if e.prev != nil {
		e.prev.next = e
	} else {
		s.head[idx] = e
	}
	s.tail[idx] = e
	s.markOccupied(lvl, idx)
	s.pending++
}

// pushFront prepends e to slot idx's list and marks the slot occupied —
// the cascade path, where re-filed events must precede later-scheduled
// residents (see the ordering invariant above).
func (s *Scheduler) pushFront(lvl, idx int, e *Event) {
	e.slot = int32(idx)
	e.prev = nil
	e.next = s.head[idx]
	if e.next != nil {
		e.next.prev = e
	} else {
		s.tail[idx] = e
	}
	s.head[idx] = e
	s.markOccupied(lvl, idx)
}

// take removes a queued event from its slot list, clearing the occupancy
// bit when the slot empties, and drops the pending count. O(1) — this is
// what makes Cancel cheap.
func (s *Scheduler) take(e *Event) {
	idx := int(e.slot)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head[idx] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail[idx] = e.prev
	}
	if s.head[idx] == nil {
		lvl := idx >> levelBits
		if s.occupied[lvl] &^= 1 << (uint(idx) & slotMask); s.occupied[lvl] == 0 {
			s.levelMask &^= 1 << uint(lvl)
		}
	}
	e.next, e.prev = nil, nil
	s.pending--
}

// scanMin returns the earliest pending event in (at, seq) order without
// removing it, or nil if there is none at tick <= limit. It is the peek
// the dispatch loop and RunUntil share: a bitmap scan over the levels.
// Higher-level slots that stand between the cursor and the minimum are
// cascaded down as a side effect; the cursor never advances past limit,
// so events scheduled after a bounded peek (RunUntil's horizon) can never
// land behind it.
func (s *Scheduler) scanMin(limit uint64) *Event {
	for {
		// Earliest candidate slot per level. A slot at level ℓ covers ticks
		// [base, base+64^ℓ), so base is an exact firing tick at level 0 and
		// a lower bound above. Scanning high level to low with a strict <
		// keeps the *highest* level on base ties: its events were inserted
		// earlier (same-tick level is non-increasing over time), so they
		// must cascade down before the lower level's slot may dispatch.
		bestLvl := -1
		bestBase, secondBase := ^uint64(0), ^uint64(0)
		for m := s.levelMask; m != 0; {
			lvl := bits.Len32(m) - 1
			m &^= 1 << uint(lvl)
			// Occupied slots never trail the cursor's own slot (pending
			// ticks are >= elapsed and share the super-bucket), so the
			// lowest set bit is the earliest slot — no rotation needed.
			// At the top level the shift reaches 66 bits, the mask is all
			// ones and base is slot<<60 alone.
			shift := uint(lvl) * levelBits
			slot := uint64(bits.TrailingZeros64(s.occupied[lvl]))
			base := s.elapsed&^(1<<(shift+levelBits)-1) | slot<<shift
			if base < bestBase {
				secondBase = bestBase
				bestBase, bestLvl = base, lvl
			} else if base < secondBase {
				secondBase = base
			}
		}
		if bestLvl < 0 || bestBase > limit {
			return nil
		}
		if bestLvl == 0 {
			return s.head[bestBase&slotMask]
		}
		// Lone-event shortcut: if the winning slot holds a single event
		// whose exact tick is no later than every other candidate's lower
		// bound, it is the global minimum — return it from its high-level
		// slot and skip the cascades a sparse queue would otherwise pay per
		// event. A tick tying another slot's base still wins: the tied slot
		// sits at a lower level, so its same-tick events were scheduled
		// later.
		shift := uint(bestLvl) * levelBits
		idx := bestLvl*slotsPerLevel + int((bestBase>>shift)&slotMask)
		if h := s.head[idx]; h == s.tail[idx] {
			if tick := uint64(h.at); tick <= secondBase {
				if tick > limit {
					return nil
				}
				return h
			}
		}
		// Cascade the winning slot one step down. Advancing the cursor to
		// the slot base first guarantees every event re-files at a strictly
		// lower level (its tick now shares the slot's walls with elapsed).
		// bestBase <= limit here, so the cursor stays inside the horizon
		// the caller committed to reaching.
		if bestBase > s.elapsed {
			s.elapsed = bestBase
		}
		e := s.tail[idx]
		s.head[idx], s.tail[idx] = nil, nil
		if s.occupied[bestLvl] &^= 1 << ((bestBase >> shift) & slotMask); s.occupied[bestLvl] == 0 {
			s.levelMask &^= 1 << uint(bestLvl)
		}
		// Walk newest→oldest, prepending: each target slot receives its
		// share of the list in original order, ahead of any residents.
		for e != nil {
			p := e.prev
			lvl, nidx := levelSlot(uint64(e.at), s.elapsed)
			s.pushFront(lvl, nidx, e)
			e = p
		}
	}
}
