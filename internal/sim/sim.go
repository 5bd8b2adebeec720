// Package sim provides the deterministic cycle-cost model used to reproduce
// the paper's performance figures. The paper measures two points for
// AppendWrite-µarch: a software-only model on real hardware (-MODEL) and a
// ZSim microarchitectural simulation (-SIM) that counts userspace cycles and
// excludes system-call time (§5.3.1). This package plays ZSim's role for the
// MIR virtual machine: every instruction, memory access, runtime check,
// message send and system call is charged a cycle cost, and relative
// performance is a ratio of accumulated cycles — fully reproducible across
// runs and machines.
package sim

import "herqules/internal/mir"

// CyclesPerNano converts the paper's nanosecond figures (measured on an
// i9-9900K at 5 GHz) into model cycles.
const CyclesPerNano = 5.0

// CostModel assigns cycle costs to execution events.
type CostModel struct {
	// Instr is the base cost of one MIR instruction (covers arithmetic,
	// branches, moves — a rough CPI-1 out-of-order core).
	Instr uint64
	// Load and Store are additional costs for memory accesses.
	Load, Store uint64
	// CallOverhead is the extra cost of a call/return pair.
	CallOverhead uint64
	// BlockOpByte is the per-byte cost of memcpy/memmove/memset.
	BlockOpByte uint64
	// Syscall is the cost of the kernel transition itself (charged in
	// wall-clock modes; the -SIM configurations exclude it, matching
	// ZSim's userspace-cycles metric).
	Syscall uint64
	// ExcludeSyscalls omits Syscall and SyncStall costs from the total
	// (the -SIM rule: userspace cycles only).
	ExcludeSyscalls bool
	// SyncStall is the extra latency of a kernel-gated system call under
	// bounded asynchronous validation: even with the synchronization
	// message pipelined ahead of the syscall (§2.2), the kernel must
	// observe the verifier's confirmation before resuming.
	SyncStall uint64
	// MessageSend is the cost of transmitting one AppendWrite message,
	// derived from the active IPC primitive's latency.
	MessageSend uint64
	// Runtime maps in-process runtime operations (design-specific checks)
	// to their costs. Operations that send messages are charged
	// MessageSend instead; entries here cover pure in-process work such
	// as a Clang-CFI class test or a CCFI AES round.
	Runtime map[mir.RuntimeOp]uint64
}

// MessageCost returns the cycle cost of sending one message over a primitive
// with the given send latency in nanoseconds.
func MessageCost(sendNanos float64) uint64 {
	c := sendNanos * CyclesPerNano
	if c < 1 {
		return 1
	}
	return uint64(c)
}

// Verifier-side drain cost model (§3.4). A scalar drain loop pays the
// primitive's fixed receive overhead — a read(2) for kernel-backed channels,
// an atomic cursor round for shared memory — once per message; a batch drain
// pays it once per burst. These constants are the model's defaults, chosen to
// match the Table 2 cost structure on the reference machine.
const (
	// RecvBurstOverheadNanosSyscall is the fixed cost of one receive-side
	// system call (read/recvmsg with KPTI), paid per message when scalar
	// and per burst when batched.
	RecvBurstOverheadNanosSyscall = 460
	// RecvBurstOverheadNanosShared is the fixed cost of one shared-memory
	// cursor round (two atomic loads, one release store).
	RecvBurstOverheadNanosShared = 15
	// RecvMessageNanos is the irreducible per-message cost: the 40-byte
	// copy, frame decode, and policy-context lookup.
	RecvMessageNanos = 12
)

// BatchRecvNanos models the amortized per-message receive cost of draining
// in bursts of the given size: the fixed burst overhead is split across the
// burst, the per-message work is not. batch <= 1 degenerates to the scalar
// cost, which is what makes the scalar/batched ratio of the throughput
// experiment directly comparable to the measured one.
func BatchRecvNanos(burstOverheadNanos float64, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	return RecvMessageNanos + burstOverheadNanos/float64(batch)
}

// Default returns the baseline cost model with no messaging attached:
// a simple out-of-order-ish core where ALU ops are cheap and memory and
// calls cost a few cycles.
func Default() *CostModel {
	return &CostModel{
		Instr:        1,
		Load:         3,
		Store:        2,
		CallOverhead: 4,
		BlockOpByte:  1,
		// A syscall with KPTI costs on the order of a microsecond
		// round-trip including kernel work; we charge the transition.
		Syscall:   1500,
		SyncStall: 350,
		Runtime: map[mir.RuntimeOp]uint64{
			// HQ messaging sites: besides the primitive's send latency
			// (charged separately as MessageSend), each site executes
			// argument setup, the runtime call, and buffer bookkeeping
			// — a dozen-odd instructions.
			mir.RTPointerDefine:          12,
			mir.RTPointerCheck:           12,
			mir.RTPointerInvalidate:      10,
			mir.RTPointerCheckInvalidate: 12,
			mir.RTBlockCopy:              16,
			mir.RTBlockMove:              16,
			mir.RTBlockInvalidate:        12,
			mir.RTSyscallSync:            12,
			mir.RTRetDefine:              12,
			mir.RTRetCheckInvalidate:     12,
			mir.RTAllocCreate:            12,
			mir.RTAllocCheck:             10,
			mir.RTAllocCheckBase:         12,
			mir.RTAllocExtend:            14,
			mir.RTAllocDestroy:           10,
			mir.RTAllocDestroyAll:        12,
			mir.RTCounterInc:             8,

			// Clang/LLVM CFI: address-range and bit-vector test on the
			// call target, plus the jump-table indirection its
			// lowering introduces.
			mir.RTClangCFICheck: 20,
			// CCFI: one AES round via AES-NI plus the shadow-MAC
			// access on every protected store/load and every
			// prologue/epilogue, *plus* the cost of the register
			// pressure its eleven reserved XMM registers impose on
			// surrounding code (spills/restores), which the paper
			// identifies as the dominant slowdown (§6.3.3: "tremendous
			// overhead").
			mir.RTMACStore:    70,
			mir.RTMACCheck:    70,
			mir.RTMACRetStore: 70,
			mir.RTMACRetCheck: 70,
			// CPI: safe-store (hash-region) access.
			mir.RTSafeStoreSet: 7,
			mir.RTSafeStoreGet: 7,
			// Store-to-load-forwarding recursion guard: one flag
			// test-and-set.
			mir.RTRecursionGuardEnter: 1,
			mir.RTRecursionGuardExit:  1,
		},
	}
}

// WithMessaging returns a copy of m charging msgCycles per AppendWrite
// message.
func (m *CostModel) WithMessaging(msgCycles uint64) *CostModel {
	n := *m
	n.Runtime = make(map[mir.RuntimeOp]uint64, len(m.Runtime))
	for k, v := range m.Runtime {
		n.Runtime[k] = v
	}
	n.MessageSend = msgCycles
	return &n
}

// RuntimeCost returns the in-process cost of a runtime op (0 when the op is
// message-backed or unknown).
func (m *CostModel) RuntimeCost(rt mir.RuntimeOp) uint64 {
	if m.Runtime == nil {
		return 0
	}
	return m.Runtime[rt]
}
