// Package bram models the on-chip Block RAMs of the studied 7-series FPGAs
// (Section II-A): each basic block is a 1024×16-bit bitcell matrix with two
// additional parity bits per row (excluded from the paper's experiments, as
// noted under Table I), individually accessible or cascadable into larger
// logical memories.
//
// Blocks are pure storage. Voltage-dependent read faults are an electrical
// phenomenon and live in internal/silicon; the chip model (internal/board)
// combines the two by applying a fault overlay on the read path. That split
// mirrors the physics: undervolting corrupts reads, not the stored charge,
// which is why the paper observes stable fault locations and full recovery
// at nominal voltage. It is also why a pool-wide pattern fill is stored once:
// host writes at nominal voltage are reliable, so every block of a filled
// pool shares one read-only page until a write gives it its own copy.
package bram

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/silicon"
)

// Geometry re-exports the block dimensions for convenience.
const (
	Rows = silicon.BRAMRows
	Cols = silicon.BRAMCols
	Bits = silicon.BRAMBits
)

// Block is one 16 Kbit BRAM: 1024 rows of 16 data bits (+2 parity bits).
type Block struct {
	site  silicon.Site
	index int
	// words holds the row contents. Unless owned, it aliases a read-only
	// fill page shared with other blocks of the same pool (see
	// Pool.FillAll): the first single-word write copies the page, and a
	// block fill replaces it, so a shared page is never written.
	words []uint16
	owned bool
	gen   uint64 // content generation, bumped by every write path

	// dirty is the change feed behind TakeDirty: the rows written since the
	// last drain, complete only while dirtyAll is unset. Bulk writes and
	// overflow past maxDirtyRows degrade the feed to "everything changed"
	// rather than growing it without bound.
	dirty    []uint16
	dirtyAll bool
}

// maxDirtyRows bounds the per-block dirty-row feed. Past it, a consumer's
// delta update would touch most of the derived state anyway, so the feed
// collapses to a full-rebuild signal.
const maxDirtyRows = 64

// NewBlock allocates a zeroed block at the given floorplan site.
func NewBlock(index int, site silicon.Site) *Block {
	return &Block{site: site, index: index, words: make([]uint16, Rows), owned: true}
}

// Index returns the block's linear index in its pool.
func (b *Block) Index() int { return b.index }

// Site returns the block's physical floorplan location.
func (b *Block) Site() silicon.Site { return b.site }

// Write stores a word at the given row, first copying a shared fill page so
// the write lands in the block's own storage.
func (b *Block) Write(row int, w uint16) {
	if !b.owned {
		b.words, b.owned = slices.Clone(b.words), true
	}
	b.words[row] = w
	b.gen++
	b.noteDirty(row)
}

func (b *Block) noteDirty(row int) {
	if b.dirtyAll {
		return
	}
	if len(b.dirty) >= maxDirtyRows {
		b.dirty, b.dirtyAll = b.dirty[:0], true
		return
	}
	b.dirty = append(b.dirty, uint16(row))
}

// TakeDirty drains the block's dirty-row feed: the rows written since the
// previous drain (duplicates possible), and whether that list is complete.
// ok=false means a bulk write (Fill, FillFunc) or feed overflow made the list
// meaningless — the consumer must rebuild whatever it derives from the
// contents. The feed has a single consumer by contract: the board's
// observable-fault prefix sums.
func (b *Block) TakeDirty() (rows []uint16, ok bool) {
	rows, ok = b.dirty, !b.dirtyAll
	b.dirty, b.dirtyAll = nil, false
	return rows, ok
}

// Gen returns the block's content generation: it changes whenever any write
// path (Write, Fill, FillFunc) touches the block, so derived per-content
// caches — like the board's observable-fault prefix sums — know when to
// rebuild. Reads never change it; the fault overlay is read-path-only.
func (b *Block) Gen() uint64 { return b.gen }

// ReadRaw returns the stored word without any fault overlay (the nominal-
// voltage read path).
func (b *Block) ReadRaw(row int) uint16 { return b.words[row] }

// Snapshot copies the whole block's data rows into dst and returns the number
// of rows copied. It is the bulk path used by full-chip read sweeps.
func (b *Block) Snapshot(dst []uint16) int { return copy(dst, b.words) }

// CountFaults counts the mismatches the given active-fault overlay would
// produce against the block's stored contents, consulting stored words only
// at the fault rows: a 1→0 fault is observable only where the stored bit is
// 1, a 0→1 fault only where it is 0. It is the count-only twin of
// Snapshot-and-compare — O(len(faults)) instead of O(Rows) — and returns the
// same totals a full readout diff would.
func (b *Block) CountFaults(faults []silicon.Fault) (total, flip10, flip01 int) {
	for _, f := range faults {
		bit := b.words[f.Row] >> f.Col & 1
		if f.Flip01 {
			if bit == 0 {
				flip01++
			}
		} else if bit == 1 {
			flip10++
		}
	}
	return flip10 + flip01, flip10, flip01
}

// ReadParity returns the parity bits of a row (bit0: low byte, bit1: high
// byte). Writes are reliable and reads corrupt only data bits, so the parity
// a row holds is always the even parity of its stored word; it is derived
// from the word rather than stored.
func (b *Block) ReadParity(row int) uint8 { return evenParity(b.words[row]) }

// Fill writes the same word to every row — the pattern initialization of the
// characterization flow (Listing 1).
func (b *Block) Fill(pattern uint16) { b.FillFunc(func(int) uint16 { return pattern }) }

// FillFunc writes pattern(row) to every row; used for random and per-row
// patterns in the Fig. 4 study.
func (b *Block) FillFunc(pattern func(row int) uint16) {
	if !b.owned { // overwritten whole: drop a shared page rather than copy it
		b.words, b.owned = make([]uint16, Rows), true
	}
	for r := range b.words {
		b.words[r] = pattern(r)
	}
	b.rewritten()
}

// share points the block at a pool's read-only fill page.
func (b *Block) share(page []uint16) {
	b.words, b.owned = page, false
	b.rewritten()
}

// rewritten records a whole-block write: a new generation, and a dirty feed
// that can only say "everything changed".
func (b *Block) rewritten() {
	b.gen++
	b.dirty, b.dirtyAll = nil, true
}

// evenParity returns one even-parity bit per byte of w (the 7-series BRAM
// carries one parity bit per 8 data bits).
func evenParity(w uint16) uint8 {
	lo := uint8(bits.OnesCount8(uint8(w)) & 1)
	hi := uint8(bits.OnesCount8(uint8(w>>8)) & 1)
	return lo | hi<<1
}

// Pool is the full set of BRAMs of one FPGA, indexed both linearly and by
// physical site.
type Pool struct {
	blocks []*Block
	bySite map[silicon.Site]*Block
}

// NewPool allocates one zeroed block per site, in site order. The blocks
// share one zero page until they are written.
func NewPool(sites []silicon.Site) *Pool {
	p := &Pool{
		blocks: make([]*Block, len(sites)),
		bySite: make(map[silicon.Site]*Block, len(sites)),
	}
	zero := make([]uint16, Rows)
	slab := make([]Block, len(sites))
	for i, s := range sites {
		b := &slab[i]
		b.site, b.index, b.words = s, i, zero
		p.blocks[i] = b
		p.bySite[s] = b
	}
	return p
}

// Len returns the number of blocks.
func (p *Pool) Len() int { return len(p.blocks) }

// Block returns the block with the given linear index.
func (p *Pool) Block(i int) *Block { return p.blocks[i] }

// At returns the block at a physical site, or nil if the site is empty.
func (p *Pool) At(s silicon.Site) *Block { return p.bySite[s] }

// FillAll writes the same pattern into every block. The blocks share one
// read-only page holding the pattern — O(blocks), not O(blocks×Rows) — until
// each is next written.
func (p *Pool) FillAll(pattern uint16) {
	page := make([]uint16, Rows)
	for r := range page {
		page[r] = pattern
	}
	for _, b := range p.blocks {
		b.share(page)
	}
}

// TotalBits returns the data capacity of the pool in bits (parity excluded,
// as in the paper's accounting).
func (p *Pool) TotalBits() int { return p.Len() * Bits }

// TotalMbits returns the capacity in Mbit (2^20 bits), the unit of the
// paper's fault rates.
func (p *Pool) TotalMbits() float64 {
	return float64(p.TotalBits()) / float64(silicon.BitsPerMbit)
}

// Cascade is a logical memory built from multiple basic blocks, the way
// designs combine BRAMs "to build larger memories (with some overheads)"
// (Section II-A). Word addresses map to (block, row) in block order.
type Cascade struct {
	blocks []*Block
	words  int
}

// NewCascade builds a logical memory of the given word count over the
// supplied blocks. It fails if the blocks cannot hold that many words.
func NewCascade(words int, blocks []*Block) (*Cascade, error) {
	if words < 0 {
		return nil, fmt.Errorf("bram: negative size %d", words)
	}
	if cap := len(blocks) * Rows; words > cap {
		return nil, fmt.Errorf("bram: cascade needs %d words but %d blocks hold %d",
			words, len(blocks), cap)
	}
	return &Cascade{blocks: blocks, words: words}, nil
}

// BlocksFor returns how many basic blocks a memory of the given word count
// needs.
func BlocksFor(words int) int { return (words + Rows - 1) / Rows }

// Len returns the logical word count.
func (c *Cascade) Len() int { return c.words }

// NumBlocks returns the number of underlying blocks.
func (c *Cascade) NumBlocks() int { return len(c.blocks) }

// Locate translates a word address into its (block, row) location.
func (c *Cascade) Locate(addr int) (blk *Block, row int, err error) {
	if addr < 0 || addr >= c.words {
		return nil, 0, fmt.Errorf("bram: address %d out of range [0,%d)", addr, c.words)
	}
	return c.blocks[addr/Rows], addr % Rows, nil
}

// Write stores a word at a logical address.
func (c *Cascade) Write(addr int, w uint16) error {
	blk, row, err := c.Locate(addr)
	if err != nil {
		return err
	}
	blk.Write(row, w)
	return nil
}

// ReadRaw reads a logical address without fault overlay.
func (c *Cascade) ReadRaw(addr int) (uint16, error) {
	blk, row, err := c.Locate(addr)
	if err != nil {
		return 0, err
	}
	return blk.ReadRaw(row), nil
}

// Blocks returns the underlying blocks (shared slice; do not modify).
func (c *Cascade) Blocks() []*Block { return c.blocks }
