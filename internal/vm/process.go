package vm

import (
	"errors"
	"fmt"

	"herqules/internal/ipc"
	"herqules/internal/mem"
	"herqules/internal/mir"
	"herqules/internal/sim"
)

// Address-space layout. ASLR is disabled in the paper's experiments (§5.2),
// so the fixed segments are "known" to attack programs; only the safe
// region's offset is randomized (information hiding).
const (
	codeBase   = 0x0040_0000
	funcStride = 0x100 // each function occupies a fake 256-byte code region

	rodataBase = 0x0060_0000
	dataBase   = 0x0080_0000
	bssBase    = 0x00a0_0000

	heapBase         = 0x0200_0000
	defaultHeapSize  = 8 << 20
	stackLow         = 0x7ff0_0000
	defaultStackSize = 1 << 20

	// exitToken is the encoded return address of the entry frame; a
	// normal return from the entry function "returns to the kernel".
	exitToken = 0x00ee_0000

	// safeRegionSize is the size of the hidden safe region used for safe
	// stacks.
	safeRegionSize = 64 * mem.PageSize
)

// Execution errors.
var (
	// ErrLimit reports that MaxInstructions was exceeded (hang).
	ErrLimit = errors.New("vm: instruction limit exceeded (hang)")
	// ErrTrap reports an in-process security check failure (Clang-CFI
	// class mismatch, CCFI MAC mismatch, recursion-guard failure).
	ErrTrap = errors.New("vm: security trap")
	// ErrStackCorrupt reports that a return dispatched through a
	// corrupted return slot that did not decode to any function.
	ErrStackCorrupt = errors.New("vm: corrupted return address")
)

// Stats counts execution events.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Calls        uint64
	ICalls       uint64
	Messages     uint64
	Syscalls     uint64
	Cycles       uint64
	BlockBytes   uint64
	MaxDepth     int
}

// Result is the outcome of running a process.
type Result struct {
	// ExitCode is the program's exit status (syscall exit or entry
	// return value).
	ExitCode uint64
	// Output collects values written by the output syscall, used for
	// correctness comparison against an uninstrumented run (Table 4).
	Output []uint64
	// Err is non-nil when the program crashed (fault, trap, hang).
	Err error
	// Killed reports termination by the kernel on the verifier's order.
	Killed     bool
	KillReason string
	// Hijacked reports that a corrupted control transfer reached
	// attacker-chosen code (whether or not its payload then succeeded).
	Hijacked bool
	// ExploitMarker is set when the exploit payload's marker system call
	// executed — the RIPE success criterion (§5.2).
	ExploitMarker bool
	// Violations counts in-process check failures observed while
	// continuing (false positives in benign runs).
	Violations int
	Stats      Stats
}

// funcMeta is per-function frame layout, precomputed at load time.
type funcMeta struct {
	frameSize  uint64
	allocaOffs map[*mir.Instr]uint64
	// Safe-stack designs move eligible locals to the safe region: these
	// offsets are relative to the frame's safe area, which starts with
	// the return slot.
	safeOffs map[*mir.Instr]uint64
	safeSize uint64
	addr     uint64
}

// Process is one loaded program instance.
type Process struct {
	Mod  *mir.Module
	Mem  *mem.Memory
	Heap *mem.Allocator
	cfg  Config
	cost *sim.CostModel

	funcMeta   map[*mir.Func]*funcMeta
	funcAt     map[uint64]*mir.Func
	globalAddr map[*mir.Global]uint64

	// Safe region (hidden): return slots under safe-stack placements.
	safeBase uint64
	safeTop  uint64 // next free safe slot (grows up)

	sp    uint64 // regular stack pointer (grows down)
	depth int

	// Design runtime state.
	macKey    uint64            // CCFI register-held key
	macTable  map[uint64]uint64 // CCFI shadow MACs
	safeStore map[uint64]uint64 // CPI safe pointer store
	guards    map[int]bool      // recursion guards

	res  *Result
	rng  uint64
	halt bool // set by exit syscall
}

// NewProcess loads mod into a fresh address space.
func NewProcess(mod *mir.Module, cfg Config) (*Process, error) {
	if cfg.HeapSize == 0 {
		cfg.HeapSize = defaultHeapSize
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = defaultStackSize
	}
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = 200_000_000
	}
	cost := cfg.Cost
	if cost == nil {
		cost = &sim.CostModel{}
	}
	p := &Process{
		Mod:        mod,
		Mem:        mem.New(),
		cfg:        cfg,
		cost:       cost,
		funcMeta:   make(map[*mir.Func]*funcMeta),
		funcAt:     make(map[uint64]*mir.Func),
		globalAddr: make(map[*mir.Global]uint64),
		macTable:   make(map[uint64]uint64),
		safeStore:  make(map[uint64]uint64),
		guards:     make(map[int]bool),
		rng:        cfg.Seed*2862933555777941757 + 3037000493,
		macKey:     cfg.Seed ^ 0x9e3779b97f4a7c15,
		res:        &Result{},
	}
	if err := p.load(); err != nil {
		return nil, err
	}
	return p, nil
}

// load lays out code, globals, heap, stack and the hidden safe region.
func (p *Process) load() error {
	// Code: one fake region per function, mapped read+exec.
	nfuncs := len(p.Mod.Funcs)
	if nfuncs > 0 {
		if err := p.Mem.Map(codeBase, uint64(nfuncs)*funcStride, mem.Read|mem.Exec); err != nil {
			return err
		}
	}
	for i, f := range p.Mod.Funcs {
		addr := uint64(codeBase + i*funcStride)
		p.funcMeta[f] = p.layoutFunc(f, addr)
		p.funcAt[addr] = f
	}

	// Globals: partition by segment.
	if err := p.layoutGlobals(); err != nil {
		return err
	}

	// Heap.
	if err := p.Mem.Map(heapBase, p.cfg.HeapSize, mem.Read|mem.Write); err != nil {
		return err
	}
	p.Heap = mem.NewAllocator(p.Mem, heapBase, p.cfg.HeapSize)

	// Regular stack: [stackLow, stackLow+StackSize), SP at the top.
	if err := p.Mem.Map(stackLow, p.cfg.StackSize, mem.Read|mem.Write); err != nil {
		return err
	}
	p.sp = stackLow + p.cfg.StackSize

	// Safe region for safe-stack placements.
	stackTop := stackLow + p.cfg.StackSize
	switch p.cfg.Placement {
	case PlaceSafeAdjacent:
		// CPI layout: the safe stack begins exactly where the regular
		// stack ends — reachable by a linear overwrite (§5.2).
		p.safeBase = stackTop
	case PlaceSafeGuarded:
		// Clang layout: an unmapped guard page separates the stacks, so
		// a linear overwrite faults before reaching a return slot.
		// Information hiding additionally randomizes the offset.
		p.safeBase = stackTop + mem.PageSize + (p.nextRand()%256)*mem.PageSize
	default:
		p.safeBase = 0
	}
	if p.safeBase != 0 {
		if err := p.Mem.Map(p.safeBase, safeRegionSize, mem.Read|mem.Write); err != nil {
			return err
		}
		p.safeTop = p.safeBase
	}
	return nil
}

// layoutFunc precomputes the frame layout: allocas packed from the frame
// base upward, the in-frame return slot as the top word (so a contiguous
// overflow of a local buffer reaches it, like x86). Allocas marked SafeSlot
// are laid out in the frame's safe area instead when the process runs a
// safe stack.
func (p *Process) layoutFunc(f *mir.Func, addr uint64) *funcMeta {
	m := &funcMeta{
		allocaOffs: make(map[*mir.Instr]uint64),
		safeOffs:   make(map[*mir.Instr]uint64),
		addr:       addr,
	}
	useSafe := p.cfg.Placement != PlaceRegular
	var off, safeOff uint64
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != mir.OpAlloca {
				continue
			}
			a := in.AllocTy.Align()
			if a < 8 {
				a = 8
			}
			if useSafe && in.SafeSlot {
				safeOff = (safeOff + a - 1) &^ (a - 1)
				m.safeOffs[in] = safeOff
				safeOff += in.AllocTy.Size()
			} else {
				off = (off + a - 1) &^ (a - 1)
				m.allocaOffs[in] = off
				off += in.AllocTy.Size()
			}
		}
	}
	off = (off + 7) &^ 7
	m.frameSize = off + 8 // + in-frame return slot
	m.safeSize = (safeOff + 7) &^ 7
	return m
}

func (p *Process) layoutGlobals() error {
	bases := map[string]uint64{"rodata": rodataBase, "data": dataBase, "bss": bssBase}
	next := map[string]uint64{"rodata": rodataBase, "data": dataBase, "bss": bssBase}
	for _, g := range p.Mod.Globals {
		seg := g.Segment
		if g.ReadOnly {
			seg = "rodata"
		}
		if seg != "bss" && seg != "rodata" {
			seg = "data"
		}
		addr := next[seg]
		a := g.Elem.Align()
		if a < 8 {
			a = 8
		}
		addr = (addr + a - 1) &^ (a - 1)
		size := g.Elem.Size()
		if size == 0 {
			size = 8
		}
		next[seg] = addr + size
		p.globalAddr[g] = addr
		g.Addr = addr
	}
	for seg, base := range bases {
		if next[seg] == base {
			continue
		}
		perm := mem.Read | mem.Write
		if seg == "rodata" {
			perm = mem.Read
		}
		if err := p.Mem.Map(base, next[seg]-base, perm); err != nil {
			return err
		}
	}
	// Initialize global contents (privileged loader stores, so read-only
	// segments can be populated).
	for _, g := range p.Mod.Globals {
		addr := p.globalAddr[g]
		words := int((g.Elem.Size() + 7) / 8)
		for i := 0; i < words; i++ {
			var w uint64
			if i < len(g.InitWords) {
				w = g.InitWords[i]
			}
			if fn, ok := g.InitFuncs[i]; ok {
				w = p.FuncAddr(fn)
			}
			var buf [8]byte
			for j := 0; j < 8; j++ {
				buf[j] = byte(w >> (8 * j))
			}
			if err := p.Mem.WriteUnchecked(addr+uint64(i*8), buf[:]); err != nil {
				return err
			}
		}
	}
	// CCFI/CPI startup registration of statically initialized code
	// pointers: without it every load of a loader-initialized pointer
	// would fail its MAC or read a missing safe-store entry.
	if p.cfg.MACGlobals || p.cfg.SafeStoreGlobals {
		for _, g := range p.Mod.Globals {
			if g.ReadOnly {
				continue
			}
			tagType := g.Elem
			if tagType.Kind == mir.KindArray {
				tagType = tagType.Elem
			}
			for i, fn := range g.InitFuncs {
				addr := p.globalAddr[g] + uint64(i*8)
				val := p.FuncAddr(fn)
				if p.cfg.SafeStoreGlobals {
					p.safeStore[addr] = val
				}
				if p.cfg.MACGlobals {
					p.macTable[addr] = p.mac(addr, val, tagType.Signature())
				}
			}
		}
	}

	// HQ's startup initializer: register global control-flow pointers
	// with the verifier (§4.1.4).
	if p.cfg.EmitGlobalDefines {
		for _, g := range p.Mod.Globals {
			if g.ReadOnly {
				continue // read-only pointers need no protection (§4.1.3)
			}
			addr := p.globalAddr[g]
			for i, fn := range g.InitFuncs {
				if err := p.emitMsg(ipc.Message{
					Op:   ipc.OpPointerDefine,
					Arg1: addr + uint64(i*8),
					Arg2: p.FuncAddr(fn),
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// StaticFuncAddr returns the code address the loader assigns to the i-th
// function of a module. With ASLR disabled (the paper's configuration,
// §5.2), this layout is known to attackers, and exploit generators use it to
// hardcode payload addresses exactly as RIPE's shellcode does.
func StaticFuncAddr(i int) uint64 { return uint64(codeBase + i*funcStride) }

// FuncAddr returns the code address of f.
func (p *Process) FuncAddr(f *mir.Func) uint64 {
	if m, ok := p.funcMeta[f]; ok {
		return m.addr
	}
	return 0
}

// emitMsg sends one message and accounts for it; it also observes a kill
// that the message may have triggered (deterministic mode).
func (p *Process) emitMsg(m ipc.Message) error {
	p.res.Stats.Messages++
	p.res.Stats.Cycles += p.cost.MessageSend
	if err := p.cfg.emit(m); err != nil {
		return fmt.Errorf("vm: message send: %w", err)
	}
	return nil
}

// checkKilled polls the kernel-kill hook.
func (p *Process) checkKilled() bool {
	if p.cfg.Killed == nil {
		return false
	}
	killed, reason := p.cfg.Killed()
	if killed {
		p.res.Killed = true
		p.res.KillReason = reason
	}
	return killed
}

func (p *Process) nextRand() uint64 {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng
}
