// Quickstart: the paper's §2 overview example — reliably count the function
// calls a program makes.
//
// An in-process counter could be corrupted by the program's own bugs.
// Instead, the program sends a counter-increment message before every call
// through the append-only AppendWrite channel, and the count lives in the
// verifier, out of the program's reach. Even if the program is compromised
// immediately after sending a message, it cannot retract it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	hq "herqules"
)

func main() {
	// Build a program that calls work() in a loop, with the §2 counter
	// instrumentation: one message before every call.
	mod := hq.NewModule("quickstart")
	b := hq.NewBuilder(mod)

	work := b.Func("work", hq.FuncTypeOf(hq.I64Type, hq.I64Type), "x")
	b.Ret(b.Mul(work.Params[0], hq.ConstInt(2)))

	main := b.Func("main", hq.FuncTypeOf(hq.I64Type))
	sum := b.Alloca("sum", hq.I64Type)
	b.Store(hq.ConstInt(0), sum)
	entry := b.Blk
	head := b.Block("head")
	body := b.Block("body")
	done := b.Block("done")
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(hq.I64Type, hq.ConstInt(0), entry)
	b.CondBr(b.Cmp(hq.CmpLt, i, hq.ConstInt(10)), body, done)
	b.SetBlock(body)
	// The compiler pass would insert this; here it is visible: one
	// counter message (class 1 = "function call") before the call.
	b.Runtime(hq.RTCounterInc, hq.ConstInt(1))
	r := b.Call(work, i)
	b.Store(b.Add(b.Load(sum), r), sum)
	i1 := b.Add(i, hq.ConstInt(1))
	i.Args, i.PhiBlocks = append(i.Args, i1), append(i.PhiBlocks, b.Blk)
	b.Br(head)
	b.SetBlock(done)
	b.Ret(b.Load(sum))
	mod.Finalize()
	_ = main
	if err := hq.Validate(mod); err != nil {
		log.Fatal(err)
	}

	// Instrument for HerQules (adds syscall synchronization etc.) and run
	// it monitored. Policies are picked by registry name; the set is built
	// here and held, so the trustworthy count can be read once the process
	// (and with it the verifier's context) is gone.
	ins, err := hq.Instrument(mod, hq.HQSfeStk, hq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	factory, err := hq.PolicySet("cfi", "counter")
	if err != nil {
		log.Fatal(err)
	}
	set := factory()
	counter := set[1].(*hq.CounterPolicy)
	out, err := hq.Run(ins, hq.RunOptions{
		Policies: func() []hq.Policy { return set },
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("program result: sum of 2*i for i<10 = %d\n", out.ExitCode)
	fmt.Printf("verifier-held call count: %d (tamper-proof: lives outside the process)\n",
		counter.Count(1))
	fmt.Printf("messages processed by verifier: %d\n", out.MessagesProcessed)
}
