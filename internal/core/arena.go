package core

// backendArena is the detector-private allocator behind store.go: free-lists
// for objStates, spill tables (bucketed by size class), and promoted vector
// clocks, plus slab carving so even first allocations amortize. Everything a
// reclaim or Compact releases goes back here and is handed out again, so
// DieEvent-heavy traces reach steady-state zero allocation. The arena is
// owned by exactly one Detector (per-shard detectors each own one), so it
// needs no locking and no cross-shard synchronization on the promotion
// path.

import (
	"math/bits"
	"unsafe"

	"repro/internal/ap"
	"repro/internal/vclock"
)

const (
	// objSlabLen is how many objStates one slab carve covers.
	objSlabLen = 64
	// clockSlabWords is the size of one clock slab; carves beyond a quarter
	// of it go straight to the heap rather than waste most of a slab.
	clockSlabWords = 4096
	// minClockCap matches vclock's pool minimum so recycled clocks absorb
	// small growth without reallocating.
	minClockCap = 8
	// tableClasses bounds the spill-table size classes (log2 capacity).
	tableClasses = 32
	// freeListCap bounds each free-list so one pathological phase cannot
	// pin unbounded memory for the rest of the run.
	freeListCap = 1024
)

type backendArena struct {
	ob      *coreObs // owning detector's instrument set
	objFree []*objState
	objSlab []objState

	tblFree [tableClasses][]*ptTable

	clockFree []vclock.VC
	clockSlab []uint64

	// reportSlab backs the clock snapshots embedded in Race reports. Races
	// escape to the user, so these carves are never recycled — the slab only
	// amortizes their allocation.
	reportSlab []uint64

	// allocBytes counts every byte the arena has requested from the Go heap
	// (slabs, tables, oversized clocks). It is monotone — the arena recycles
	// internally and never returns memory to the GC — so it is an upper
	// bound on the detector's resident footprint, which the fleet scheduler
	// charges against per-tenant arena-byte quotas.
	allocBytes int64
}

// account charges n freshly heap-allocated bytes to the arena footprint.
func (a *backendArena) account(n int) { a.allocBytes += int64(n) }

// newObjState returns a zeroed objState, recycled or carved from a slab.
func (a *backendArena) newObjState() *objState {
	if n := len(a.objFree); n > 0 {
		st := a.objFree[n-1]
		a.objFree[n-1] = nil
		a.objFree = a.objFree[:n-1]
		a.ob.arenaObjFree.Add(-1)
		a.ob.arenaObjInUse.Add(1)
		return st
	}
	if len(a.objSlab) == 0 {
		a.objSlab = make([]objState, objSlabLen)
		a.account(objSlabLen * int(unsafe.Sizeof(objState{})))
	}
	st := &a.objSlab[0]
	a.objSlab = a.objSlab[1:]
	a.ob.arenaObjInUse.Add(1)
	return st
}

// putObjState recycles a released objState (already zeroed by releaseObj).
func (a *backendArena) putObjState(st *objState) {
	a.ob.arenaObjInUse.Add(-1)
	if len(a.objFree) >= freeListCap {
		return
	}
	a.objFree = append(a.objFree, st)
	a.ob.arenaObjFree.Add(1)
}

// newTable returns an empty table of the given power-of-two capacity,
// recycled from its size class when possible.
func (a *backendArena) newTable(capacity int) *ptTable {
	cl := bits.TrailingZeros(uint(capacity))
	if cl < tableClasses {
		if fl := a.tblFree[cl]; len(fl) > 0 {
			t := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			a.tblFree[cl] = fl[:len(fl)-1]
			a.ob.arenaTblFree.Add(-1)
			return t
		}
	}
	a.account(int(unsafe.Sizeof(ptTable{})) +
		capacity*int(1+unsafe.Sizeof(ap.Point{})+unsafe.Sizeof(ptState{})))
	return &ptTable{
		mask:   uint64(capacity - 1),
		used:   make([]bool, capacity),
		keys:   make([]ap.Point, capacity),
		states: make([]ptState, capacity),
	}
}

// putTable clears a table and files it under its size class.
func (a *backendArena) putTable(t *ptTable) {
	clear(t.used)
	clear(t.keys)
	clear(t.states)
	t.live = 0
	cl := bits.TrailingZeros(uint(len(t.used)))
	if cl >= tableClasses || len(a.tblFree[cl]) >= freeListCap {
		return
	}
	a.tblFree[cl] = append(a.tblFree[cl], t)
	a.ob.arenaTblFree.Add(1)
}

// cloneClock returns a copy of c with capacity at least minCap, recycled
// from the clock free-list or carved from a slab. It is the promotion
// allocator: pass minCap ≥ the width the immediate JoinEpoch needs so the
// join never reallocates. A nil/empty c with minCap 0 stays nil (matching
// VC.Clone).
func (a *backendArena) cloneClock(c vclock.VC, minCap int) vclock.VC {
	w := len(c)
	if minCap < w {
		minCap = w
	}
	if minCap == 0 {
		return nil
	}
	if minCap < minClockCap {
		minCap = minClockCap
	}
	var out vclock.VC
	if n := len(a.clockFree); n > 0 {
		buf := a.clockFree[n-1]
		a.clockFree[n-1] = nil
		a.clockFree = a.clockFree[:n-1]
		a.ob.arenaClockFree.Add(-1)
		if cap(buf) >= minCap {
			out = buf[:w]
		}
		// A too-narrow recycled clock is dropped: thread counts only grow,
		// so narrow buffers would otherwise cycle uselessly forever.
	}
	if out == nil {
		if minCap > clockSlabWords/4 {
			out = make(vclock.VC, w, minCap)
			a.account(minCap * 8)
		} else {
			if len(a.clockSlab) < minCap {
				a.clockSlab = make([]uint64, clockSlabWords)
				a.account(clockSlabWords * 8)
			}
			// Three-index carve: cap is pinned to the carved region so a
			// later grow of this clock can never alias the next carve.
			out = vclock.VC(a.clockSlab[0:w:minCap])
			a.clockSlab = a.clockSlab[minCap:]
		}
	}
	copy(out, c)
	return out
}

// freeClock recycles a promoted clock released by Compact or reclaim. Only
// clocks are passed here (epoch-compressed points have vc == nil, which is
// ignored).
func (a *backendArena) freeClock(c vclock.VC) {
	if c == nil || cap(c) < minClockCap {
		return
	}
	if len(a.clockFree) >= freeListCap {
		return
	}
	a.clockFree = append(a.clockFree, c[:0])
	a.ob.arenaClockFree.Add(1)
}

// reportClock returns a copy of c carved from the never-recycled report
// slab. Race reports own their clocks and outlive the detector's recycling,
// so these buffers are never reused; the slab only batches their allocation.
func (a *backendArena) reportClock(c vclock.VC) vclock.VC {
	w := len(c)
	if w == 0 {
		return nil
	}
	if w > clockSlabWords/4 {
		out := make(vclock.VC, w)
		a.account(w * 8)
		copy(out, c)
		return out
	}
	if len(a.reportSlab) < w {
		a.reportSlab = make([]uint64, clockSlabWords)
		a.account(clockSlabWords * 8)
	}
	out := vclock.VC(a.reportSlab[0:w:w])
	a.reportSlab = a.reportSlab[w:]
	copy(out, c)
	return out
}

// reportEpochVC is reportClock for an epoch-form point: the sparse
// ⟨…, C, …⟩ expansion vclock.Epoch.VC returns, carved from the report slab.
// Report-slab regions are handed out once and never recycled, so a fresh
// carve is still in its make-zeroed state and only the T entry needs
// writing.
func (a *backendArena) reportEpochVC(e vclock.Epoch) vclock.VC {
	w := int(e.T) + 1
	if w > clockSlabWords/4 {
		a.account(w * 8)
		return e.VC()
	}
	if len(a.reportSlab) < w {
		a.reportSlab = make([]uint64, clockSlabWords)
		a.account(clockSlabWords * 8)
	}
	out := vclock.VC(a.reportSlab[0:w:w])
	a.reportSlab = a.reportSlab[w:]
	out[e.T] = e.C
	return out
}
