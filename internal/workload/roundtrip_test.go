package workload

import (
	"testing"

	"herqules/internal/compiler"
	"herqules/internal/mir"
	"herqules/internal/supervisor"
)

// TestTextualRoundTripPreservesBehaviour is the parser's strongest fidelity
// check: every benchmark program survives print→parse→print as a fixed
// point, and the reparsed program — instrumented and run under HQ — produces
// the same output and message count as the original.
func TestTextualRoundTripPreservesBehaviour(t *testing.T) {
	for _, p := range All() {
		mod := p.Build(ScaleTest)
		text := mod.String()
		parsed, err := mir.ParseModule(text)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		if parsed.String() != text {
			t.Fatalf("%s: print→parse→print not a fixed point", p.Name)
		}

		run := func(m *mir.Module) *supervisor.Outcome {
			opts := compiler.DefaultOptions()
			opts.Allowlist = p.Allowlist()
			ins, err := compiler.Instrument(m, compiler.HQSfeStk, opts)
			if err != nil {
				t.Fatalf("%s: instrument: %v", p.Name, err)
			}
			out, err := supervisor.Run(supervisor.Config{}, ins, supervisor.LaunchOptions{Inline: true, ContinueChecks: true})
			if err != nil {
				t.Fatalf("%s: run: %v", p.Name, err)
			}
			return out
		}
		orig := run(mod)
		rep := run(parsed)
		if orig.Err != nil || rep.Err != nil {
			t.Fatalf("%s: errs %v / %v", p.Name, orig.Err, rep.Err)
		}
		if !equalOutput(orig.Output, rep.Output) {
			t.Errorf("%s: reparsed program output diverged", p.Name)
		}
		if orig.Stats.Messages != rep.Stats.Messages {
			t.Errorf("%s: message count diverged: %d vs %d",
				p.Name, orig.Stats.Messages, rep.Stats.Messages)
		}
	}
}
