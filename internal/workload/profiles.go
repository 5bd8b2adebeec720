package workload

// The benchmark roster: 19 SPEC CPU2006 + 28 SPEC CPU2017 benchmarks plus
// NGINX — 48 performance benchmarks, as in the paper's §5. Feature flags are
// assigned so that the Table 4 correctness phenomena reproduce from each
// design's mechanism:
//
//   - CastAtCall (15 benchmarks): pointer called under a different type →
//     Clang/LLVM CFI false positive (15) and CCFI false positive.
//   - CastAtStore (14 benchmarks): pointer stored through a decayed integer
//     slot → CCFI false positive; CPI misses the store and crashes on the
//     poisoned load (14 errors / 14 invalid).
//   - CastAtCall ∪ CastAtStore = 29 → CCFI's 29 false positives.
//   - LibmOps > 0 on exactly 9 cast-set benchmarks → CCFI's x87 fallback
//     perturbs their output (9 invalid).
//   - CCFIIncompatible (12, inside the cast set, disjoint from the libm 9)
//     → CCFI's 12 errors (reserved-XMM prototype crashes, modelled).
//   - OldCompilerBug (2, inside CastAtStore and CCFIIncompatible) → the 2
//     errors both old-LLVM baselines share.
//   - DecayedBlockOp (4, inside CastAtStore) → the four benchmarks whose
//     block operations need HQ's allowlist under strict subtype checking.
//   - UAFBug (2 omnetpp benchmarks) → the static-initialization-order
//     use-after-free HQ-CFI discovered (§5.2); a true positive, not a
//     false one.
var profiles = []*Profile{
	// ---------------- SPEC CPU2006 ----------------
	{Name: "perlbench", Suite: "CPU2006", ComputeOps: 60, MemOps: 8, ICalls: 2, FPWrites: 1, Calls: 10, Recursion: 4, SyscallEvery: 64, Iters: 120, PtrTable: 450,
		CastAtCall: true, CCFIIncompatible: true},
	{Name: "bzip2", Suite: "CPU2006", ComputeOps: 140, MemOps: 16, Calls: 2, BlockEvery: 8, BlockBytes: 128, SyscallEvery: 128, Iters: 120, PtrTable: 100,
		CastAtStore: true, CCFIIncompatible: true, OldCompilerBug: true},
	{Name: "gcc", Suite: "CPU2006", ComputeOps: 50, MemOps: 10, ICalls: 2, FPWrites: 2, Calls: 14, Recursion: 6, SyscallEvery: 32, Iters: 100, PtrTable: 600,
		CastAtCall: true, CCFIIncompatible: true},
	{Name: "mcf", Suite: "CPU2006", ComputeOps: 40, MemOps: 40, Calls: 1, SyscallEvery: 256, Iters: 140},
	{Name: "gobmk", Suite: "CPU2006", ComputeOps: 80, MemOps: 12, ICalls: 1, Calls: 8, Recursion: 5, SyscallEvery: 64, Iters: 110, PtrTable: 200,
		CastAtCall: true, CCFIIncompatible: true},
	{Name: "hmmer", Suite: "CPU2006", ComputeOps: 180, MemOps: 20, Calls: 2, SyscallEvery: 256, Iters: 120, PtrTable: 150, CastAtCall: true},
	{Name: "sjeng", Suite: "CPU2006", ComputeOps: 70, MemOps: 10, ICalls: 1, Calls: 9, Recursion: 8, SyscallEvery: 128, Iters: 110, PtrTable: 200, CastAtCall: true},
	{Name: "libquantum", Suite: "CPU2006", ComputeOps: 220, MemOps: 24, Calls: 1, SyscallEvery: 512, Iters: 130},
	{Name: "h264ref", Suite: "CPU2006", ComputeOps: 45, MemOps: 10, ICalls: 6, FPWrites: 3, Calls: 4, BlockEvery: 16, BlockBytes: 64, SyscallEvery: 128, Iters: 120, PtrTable: 320,
		CastAtStore: true, DecayedBlockOp: true, CCFIIncompatible: true},
	{Name: "omnetpp", Suite: "CPU2006", CPP: true, ComputeOps: 55, MemOps: 10, VCalls: 3, LocalVObj: true, Calls: 6, SyscallEvery: 64, Iters: 110, PtrTable: 700, UAFBug: true},
	{Name: "astar", Suite: "CPU2006", CPP: true, ComputeOps: 90, MemOps: 18, VCalls: 1, Calls: 4, SyscallEvery: 128, Iters: 120, PtrTable: 120},
	{Name: "xalancbmk", Suite: "CPU2006", CPP: true, ComputeOps: 40, MemOps: 8, VCalls: 4, LocalVObj: true, FPWrites: 2, Calls: 8, SyscallEvery: 64, Iters: 100, PtrTable: 2000},
	{Name: "milc", Suite: "CPU2006", ComputeOps: 160, MemOps: 24, Calls: 2, LibmOps: 2, SyscallEvery: 256, Iters: 120, PtrTable: 60, CastAtStore: true},
	{Name: "namd", Suite: "CPU2006", CPP: true, ComputeOps: 200, MemOps: 20, Calls: 1, LibmOps: 3, SyscallEvery: 512, Iters: 120, PtrTable: 60, CastAtStore: true},
	{Name: "dealII", Suite: "CPU2006", CPP: true, ComputeOps: 110, MemOps: 16, VCalls: 1, Calls: 4, LibmOps: 2, SyscallEvery: 128, Iters: 110, PtrTable: 300, CastAtStore: true},
	{Name: "soplex", Suite: "CPU2006", CPP: true, ComputeOps: 100, MemOps: 20, VCalls: 1, Calls: 3, LibmOps: 2, SyscallEvery: 128, Iters: 110, PtrTable: 300, CastAtStore: true},
	{Name: "povray", Suite: "CPU2006", CPP: true, ComputeOps: 90, MemOps: 12, ICalls: 2, VCalls: 2, Calls: 5, LibmOps: 4, SyscallEvery: 128, Iters: 100, PtrTable: 400,
		CastAtCall: true},
	{Name: "lbm", Suite: "CPU2006", ComputeOps: 260, MemOps: 30, Calls: 1, SyscallEvery: 512, Iters: 130},
	{Name: "sphinx3", Suite: "CPU2006", ComputeOps: 120, MemOps: 18, ICalls: 1, Calls: 3, LibmOps: 3, SyscallEvery: 128, Iters: 110, PtrTable: 60, CastAtStore: true},

	// ---------------- SPEC CPU2017 rate ----------------
	{Name: "perlbench_r", Suite: "CPU2017", ComputeOps: 60, MemOps: 8, ICalls: 2, FPWrites: 1, Calls: 11, Recursion: 4, SyscallEvery: 64, Iters: 110, PtrTable: 450,
		CastAtCall: true, CCFIIncompatible: true},
	{Name: "gcc_r", Suite: "CPU2017", ComputeOps: 50, MemOps: 10, ICalls: 2, FPWrites: 2, Calls: 13, Recursion: 6, SyscallEvery: 32, Iters: 100, PtrTable: 600,
		CastAtCall: true, CCFIIncompatible: true},
	{Name: "mcf_r", Suite: "CPU2017", ComputeOps: 45, MemOps: 38, Calls: 1, SyscallEvery: 256, Iters: 140},
	{Name: "omnetpp_r", Suite: "CPU2017", CPP: true, ComputeOps: 55, MemOps: 10, VCalls: 3, LocalVObj: true, Calls: 6, SyscallEvery: 64, Iters: 110, PtrTable: 700},
	{Name: "xalancbmk_r", Suite: "CPU2017", CPP: true, ComputeOps: 40, MemOps: 8, VCalls: 4, LocalVObj: true, FPWrites: 2, Calls: 8, SyscallEvery: 64, Iters: 100, PtrTable: 2000},
	{Name: "x264_r", Suite: "CPU2017", ComputeOps: 70, MemOps: 14, ICalls: 4, FPWrites: 2, Calls: 3, BlockEvery: 16, BlockBytes: 64, SyscallEvery: 128, Iters: 120, PtrTable: 320,
		CastAtStore: true, DecayedBlockOp: true, CCFIIncompatible: true},
	{Name: "deepsjeng_r", Suite: "CPU2017", ComputeOps: 75, MemOps: 10, ICalls: 1, Calls: 8, Recursion: 8, SyscallEvery: 128, Iters: 110, PtrTable: 200, CastAtCall: true},
	{Name: "leela_r", Suite: "CPU2017", CPP: true, ComputeOps: 85, MemOps: 12, VCalls: 2, Calls: 6, Recursion: 5, SyscallEvery: 128, Iters: 110, PtrTable: 260},
	{Name: "exchange2_r", Suite: "CPU2017", ComputeOps: 150, MemOps: 12, Calls: 3, Recursion: 9, SyscallEvery: 512, Iters: 110},
	{Name: "xz_r", Suite: "CPU2017", ComputeOps: 120, MemOps: 20, Calls: 2, BlockEvery: 8, BlockBytes: 256, SyscallEvery: 256, Iters: 120, PtrTable: 100,
		CastAtStore: true, DecayedBlockOp: true},
	{Name: "blender_r", Suite: "CPU2017", CPP: true, ComputeOps: 95, MemOps: 14, ICalls: 2, VCalls: 2, Calls: 5, SyscallEvery: 128, Iters: 110, PtrTable: 350,
		CastAtCall: true, CCFIIncompatible: true},
	{Name: "parest_r", Suite: "CPU2017", CPP: true, ComputeOps: 115, MemOps: 18, VCalls: 1, Calls: 4, LibmOps: 2, SyscallEvery: 128, Iters: 110, PtrTable: 300, CastAtStore: true},
	{Name: "povray_r", Suite: "CPU2017", CPP: true, ComputeOps: 90, MemOps: 12, ICalls: 2, VCalls: 2, Calls: 5, LibmOps: 4, SyscallEvery: 128, Iters: 100, PtrTable: 400,
		CastAtCall: true},
	{Name: "lbm_r", Suite: "CPU2017", ComputeOps: 250, MemOps: 30, Calls: 1, SyscallEvery: 512, Iters: 130},
	{Name: "imagick_r", Suite: "CPU2017", ComputeOps: 170, MemOps: 22, ICalls: 1, Calls: 2, SyscallEvery: 256, Iters: 120, PtrTable: 60, CastAtCall: true},
	{Name: "nab_r", Suite: "CPU2017", ComputeOps: 140, MemOps: 18, Calls: 2, LibmOps: 2, SyscallEvery: 256, Iters: 120, PtrTable: 60, CastAtStore: true},

	// ---------------- SPEC CPU2017 speed ----------------
	{Name: "perlbench_s", Suite: "CPU2017", ComputeOps: 60, MemOps: 8, ICalls: 2, FPWrites: 1, Calls: 11, Recursion: 4, SyscallEvery: 64, Iters: 110, PtrTable: 450,
		CastAtCall: true, CCFIIncompatible: true},
	{Name: "gcc_s", Suite: "CPU2017", ComputeOps: 45, MemOps: 9, ICalls: 2, FPWrites: 2, Calls: 16, Recursion: 7, SyscallEvery: 32, Iters: 100, PtrTable: 600,
		CastAtCall: true, CCFIIncompatible: true},
	{Name: "mcf_s", Suite: "CPU2017", ComputeOps: 45, MemOps: 42, Calls: 1, SyscallEvery: 256, Iters: 140},
	{Name: "omnetpp_s", Suite: "CPU2017", CPP: true, ComputeOps: 55, MemOps: 10, VCalls: 3, LocalVObj: true, Calls: 6, SyscallEvery: 64, Iters: 110, PtrTable: 700, UAFBug: true},
	{Name: "xalancbmk_s", Suite: "CPU2017", CPP: true, ComputeOps: 40, MemOps: 8, VCalls: 4, LocalVObj: true, FPWrites: 3, Calls: 8, SyscallEvery: 64, Iters: 100, PtrTable: 2000},
	{Name: "x264_s", Suite: "CPU2017", ComputeOps: 70, MemOps: 14, ICalls: 4, FPWrites: 2, Calls: 3, BlockEvery: 16, BlockBytes: 64, SyscallEvery: 128, Iters: 120, PtrTable: 320,
		CastAtStore: true, DecayedBlockOp: true},
	{Name: "deepsjeng_s", Suite: "CPU2017", ComputeOps: 75, MemOps: 10, ICalls: 1, Calls: 8, Recursion: 8, SyscallEvery: 128, Iters: 110, PtrTable: 200, CastAtCall: true},
	{Name: "leela_s", Suite: "CPU2017", CPP: true, ComputeOps: 85, MemOps: 12, VCalls: 2, Calls: 6, Recursion: 5, SyscallEvery: 128, Iters: 110, PtrTable: 260},
	{Name: "exchange2_s", Suite: "CPU2017", ComputeOps: 150, MemOps: 12, Calls: 3, Recursion: 9, SyscallEvery: 512, Iters: 110},
	{Name: "xz_s", Suite: "CPU2017", ComputeOps: 120, MemOps: 20, Calls: 2, BlockEvery: 8, BlockBytes: 256, SyscallEvery: 256, Iters: 120, PtrTable: 100,
		CastAtStore: true, CCFIIncompatible: true, OldCompilerBug: true},
	{Name: "lbm_s", Suite: "CPU2017", ComputeOps: 260, MemOps: 32, Calls: 1, SyscallEvery: 512, Iters: 130},
	{Name: "nab_s", Suite: "CPU2017", ComputeOps: 140, MemOps: 18, Calls: 2, SyscallEvery: 256, Iters: 120, PtrTable: 60, CastAtStore: true},

	// ---------------- NGINX ----------------
	{Name: "nginx", Suite: "NGINX", ComputeOps: 40, Calls: 3, Iters: 300},
}

// All returns every benchmark profile.
func All() []*Profile { return profiles }
