package herqules_test

import (
	"fmt"
	"log"

	hq "herqules"
)

// Example demonstrates the complete HerQules flow: author a program,
// instrument it with HQ-CFI, corrupt a function pointer through a
// memory-safety bug, and watch the verifier kill the process before the
// attacker's payload can issue its system call.
func Example() {
	mod := hq.NewModule("demo")
	b := hq.NewBuilder(mod)
	sig := hq.FuncTypeOf(hq.I64Type, hq.I64Type)

	// Function #0: the attacker's payload.
	b.Func("attacker", sig, "x")
	b.Syscall(hq.SysExit, hq.ConstInt(99))
	b.Ret(hq.ConstInt(0))

	legit := b.Func("legit", sig, "x")
	b.Ret(b.Add(legit.Params[0], hq.ConstInt(1)))

	b.Func("main", hq.FuncTypeOf(hq.I64Type))
	slot := b.Cast(b.Malloc(hq.ConstInt(16)), hq.PtrType(hq.PtrType(sig)))
	b.Store(b.FuncAddr(legit), slot)
	// The "overflow": a raw write of the attacker's (ASLR-off, constant)
	// address over the callback slot.
	b.Store(hq.ConstInt(hq.StaticFuncAddr(0)), b.Cast(slot, hq.PtrType(hq.I64Type)))
	fp := b.Load(slot)
	r := b.ICall(fp, sig, hq.ConstInt(41))
	b.Syscall(hq.SysWrite, r)
	b.Syscall(hq.SysExit, hq.ConstInt(0))
	b.Ret(hq.ConstInt(0))
	mod.Finalize()

	ins, err := hq.Instrument(mod, hq.HQSfeStk, hq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	out, err := hq.Run(ins, hq.RunOptions{KillOnViolation: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("killed:", out.Killed)
	fmt.Println("reason:", out.KillReason)
	// Output:
	// killed: true
	// reason: pointer value mismatch: corrupt
}

// ExampleParseModule shows the textual MIR surface: programs can be written
// as text, parsed, and run monitored.
func ExampleParseModule() {
	src := `module hello

func @double(%x: i64) -> i64 {
entry:
  %r = mul %x, 2 : i64
  ret %r
}

func @main() -> i64 {
entry:
  %v = call @double(21) : i64
  %w = syscall 1(%v) : i64
  ret 0
}
`
	mod, err := hq.ParseModule(src)
	if err != nil {
		log.Fatal(err)
	}
	ins, err := hq.Instrument(mod, hq.HQSfeStk, hq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	out, err := hq.Run(ins, hq.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out.Output[0])
	// Output:
	// 42
}

// ExamplePolicySet reproduces the paper's §2 overview: a tamper-proof event
// counter held by the verifier, out of the monitored program's reach. The
// policies are picked by registry name; the set is built here and held, so
// the count can be read once the process has exited.
func ExamplePolicySet() {
	mod := hq.NewModule("count")
	b := hq.NewBuilder(mod)
	b.Func("main", hq.FuncTypeOf(hq.I64Type))
	for i := 0; i < 3; i++ {
		b.Runtime(hq.RTCounterInc, hq.ConstInt(1))
	}
	b.Ret(hq.ConstInt(0))
	mod.Finalize()

	ins, err := hq.Instrument(mod, hq.HQSfeStk, hq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	factory, err := hq.PolicySet("cfi", "counter")
	if err != nil {
		log.Fatal(err)
	}
	set := factory()
	if _, err := hq.Run(ins, hq.RunOptions{
		Policies: func() []hq.Policy { return set },
	}); err != nil {
		log.Fatal(err)
	}
	for _, p := range set {
		if p.Name() == "counter" {
			fmt.Println("events:", p.(*hq.CounterPolicy).Count(1))
		}
	}
	// Output:
	// events: 3
}
