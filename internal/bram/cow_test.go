package bram

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/platform"
	"repro/internal/prng"
	"repro/internal/silicon"
)

// refBlock is the storage model fill pages must be indistinguishable from:
// every block owns its words and stores its parity bits, and every write
// path rewrites them in place.
type refBlock struct {
	words    []uint16
	parity   []uint8
	gen      uint64
	dirty    []uint16
	dirtyAll bool
}

func newRefBlock() *refBlock {
	return &refBlock{words: make([]uint16, Rows), parity: make([]uint8, Rows)}
}

func (r *refBlock) write(row int, w uint16) {
	r.words[row], r.parity[row] = w, evenParity(w)
	r.gen++
	if r.dirtyAll {
		return
	}
	if len(r.dirty) >= maxDirtyRows {
		r.dirty, r.dirtyAll = nil, true
		return
	}
	r.dirty = append(r.dirty, uint16(row))
}

func (r *refBlock) fillFunc(pattern func(row int) uint16) {
	for row := range r.words {
		w := pattern(row)
		r.words[row], r.parity[row] = w, evenParity(w)
	}
	r.gen++
	r.dirty, r.dirtyAll = nil, true
}

func (r *refBlock) takeDirty() ([]uint16, bool) {
	rows, ok := r.dirty, !r.dirtyAll
	r.dirty, r.dirtyAll = nil, false
	return rows, ok
}

// randomFaults draws a fault list with one mechanism per bitcell, the way
// the silicon model produces them.
func randomFaults(src *prng.Source, n int) []silicon.Fault {
	seen := map[[2]int]bool{}
	var faults []silicon.Fault
	for len(faults) < n {
		f := silicon.Fault{Row: uint16(src.Intn(Rows)), Col: uint8(src.Intn(Cols)), Flip01: src.Intn(2) == 1}
		k := [2]int{int(f.Row), int(f.Col)}
		if !seen[k] {
			seen[k] = true
			faults = append(faults, f)
		}
	}
	return faults
}

// TestFillPagesMatchOwnedReference runs seeded random schedules of every
// write path against a reference that always owns its words, and requires
// every read path, the parity bits, the generation and the dirty feed to
// agree after each step.
func TestFillPagesMatchOwnedReference(t *testing.T) {
	sites := []silicon.Site{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			src := prng.New(seed)
			pool := NewPool(sites)
			ref := make([]*refBlock, len(sites))
			for i := range ref {
				ref[i] = newRefBlock()
			}
			// A cascade over three blocks, one of them only partly mapped.
			casc, err := NewCascade(2*Rows+Rows/2, []*Block{pool.Block(1), pool.Block(3), pool.Block(4)})
			if err != nil {
				t.Fatal(err)
			}
			cascRef := []*refBlock{ref[1], ref[3], ref[4]}
			snap := make([]uint16, Rows)
			for step := 0; step < 400; step++ {
				var op string
				switch k := src.Intn(10); {
				case k == 0:
					p := uint16(src.Uint64())
					op = fmt.Sprintf("Pool.FillAll(%#x)", p)
					pool.FillAll(p)
					for _, r := range ref {
						r.fillFunc(func(int) uint16 { return p })
					}
				case k == 1:
					i, p := src.Intn(len(sites)), uint16(src.Uint64())
					op = fmt.Sprintf("Block(%d).Fill(%#x)", i, p)
					pool.Block(i).Fill(p)
					ref[i].fillFunc(func(int) uint16 { return p })
				case k == 2:
					i, key := src.Intn(len(sites)), src.Uint64()
					op = fmt.Sprintf("Block(%d).FillFunc", i)
					pattern := func(row int) uint16 { return uint16(prng.Mix64(key + uint64(row))) }
					pool.Block(i).FillFunc(pattern)
					ref[i].fillFunc(pattern)
				case k < 7:
					i, row, w := src.Intn(len(sites)), src.Intn(Rows), uint16(src.Uint64())
					op = fmt.Sprintf("Block(%d).Write(%d, %#x)", i, row, w)
					pool.Block(i).Write(row, w)
					ref[i].write(row, w)
				case k < 9:
					addr, w := src.Intn(casc.Len()), uint16(src.Uint64())
					op = fmt.Sprintf("Cascade.Write(%d, %#x)", addr, w)
					if err := casc.Write(addr, w); err != nil {
						t.Fatal(err)
					}
					cascRef[addr/Rows].write(addr%Rows, w)
				default:
					i := src.Intn(len(sites))
					op = fmt.Sprintf("Block(%d).TakeDirty", i)
					rows, ok := pool.Block(i).TakeDirty()
					wantRows, wantOK := ref[i].takeDirty()
					if ok != wantOK || !slices.Equal(rows, wantRows) {
						t.Fatalf("step %d %s = (%v, %v), want (%v, %v)", step, op, rows, ok, wantRows, wantOK)
					}
				}
				faults := randomFaults(src, 40)
				for i, r := range ref {
					b := pool.Block(i)
					if b.Gen() != r.gen {
						t.Fatalf("step %d %s: block %d Gen = %d, want %d", step, op, i, b.Gen(), r.gen)
					}
					if n := b.Snapshot(snap); n != Rows || !slices.Equal(snap, r.words) {
						t.Fatalf("step %d %s: block %d Snapshot differs from reference", step, op, i)
					}
					for _, row := range []int{0, src.Intn(Rows), Rows - 1} {
						if b.ReadRaw(row) != r.words[row] || b.ReadParity(row) != r.parity[row] {
							t.Fatalf("step %d %s: block %d row %d reads (%#x, %#b), want (%#x, %#b)",
								step, op, i, row, b.ReadRaw(row), b.ReadParity(row), r.words[row], r.parity[row])
						}
					}
					total, f10, f01 := b.CountFaults(faults)
					var w10, w01 int
					for _, f := range faults {
						bit := r.words[f.Row] >> f.Col & 1
						if f.Flip01 && bit == 0 {
							w01++
						} else if !f.Flip01 && bit == 1 {
							w10++
						}
					}
					if total != w10+w01 || f10 != w10 || f01 != w01 {
						t.Fatalf("step %d %s: block %d CountFaults = (%d, %d, %d), want (%d, %d, %d)",
							step, op, i, total, f10, f01, w10+w01, w10, w01)
					}
				}
			}
		})
	}
}

// TestWriteAfterFillAllDoesNotAlias: blocks of a filled pool share one page,
// so a write to one block must land in a private copy.
func TestWriteAfterFillAllDoesNotAlias(t *testing.T) {
	sites := []silicon.Site{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}}
	for _, pattern := range []uint16{0, 0xAAAA} {
		p := NewPool(sites)
		if pattern != 0 {
			p.FillAll(pattern)
		}
		p.Block(1).Write(7, 0x1234)
		c, err := NewCascade(3*Rows, []*Block{p.Block(0), p.Block(1), p.Block(2)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Write(2*Rows+9, 0x5678); err != nil {
			t.Fatal(err)
		}
		p.Block(0).FillFunc(func(row int) uint16 { return uint16(row) })
		for i := 0; i < p.Len(); i++ {
			for row := 0; row < Rows; row++ {
				want := pattern
				switch {
				case i == 0:
					want = uint16(row)
				case i == 1 && row == 7:
					want = 0x1234
				case i == 2 && row == 9:
					want = 0x5678
				}
				if got := p.Block(i).ReadRaw(row); got != want {
					t.Fatalf("pattern %#x: block %d row %d = %#x, want %#x", pattern, i, row, got, want)
				}
			}
		}
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls so stray runtime allocations (finalizers, the test framework)
// do not dominate a small reading.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestPoolFillAllocations pins the storage cost of the full-size VC707 pool
// (2060 blocks): a pool-wide fill is one shared page, and a fresh pool
// shares one zero page instead of allocating a buffer per block.
func TestPoolFillAllocations(t *testing.T) {
	sites := platform.VC707().Sites()
	var p *Pool
	perBlock := allocBytes(4, func() { p = NewPool(sites) }) / uint64(len(sites))
	if perBlock >= 512 {
		t.Errorf("NewPool allocated %d B per block, want < 512", perBlock)
	}
	if n := allocBytes(20, func() { p.FillAll(0x5555) }); n >= 4<<10 {
		t.Errorf("FillAll allocated %d B over %d blocks, want < 4 KiB", n, len(sites))
	}
	runtime.KeepAlive(p)
}
