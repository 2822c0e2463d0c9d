package main

import (
	"fmt"
	"time"

	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/schedtest"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// timedPolicy times Assign on the policy it embeds, counts what each call
// saw and placed, and checks every assignment with schedtest.Check
// outside the layer spans. With pre set, Assign also closes the open pre
// span and opens post, so a round splits into the work before the
// decision, the decision, and the work after it. Only traced passes use
// it; the embedded policy decides exactly as it would unwrapped.
type timedPolicy struct {
	sched.Policy
	rec       *recorder
	name      string
	pre, post string

	queued, placed int
	checks         time.Duration // spent in schedtest.Check
	checkErr       error
}

func (p *timedPolicy) Assign(ctx *sched.Context) sched.Assignment {
	if p.pre != "" {
		p.rec.end(p.pre)
	}
	p.rec.begin(p.name)
	asg := p.Policy.Assign(ctx)
	p.rec.end(p.name)

	p.queued += len(ctx.Queued)
	p.placed += len(asg.Place)
	p.rec.begin(benchPrefix + "check")
	start := time.Now()
	if err := schedtest.Check(ctx, asg, schedtest.Options{}); err != nil && p.checkErr == nil {
		p.checkErr = fmt.Errorf("%s at t=%g: %w", p.Name(), ctx.Now, err)
	}
	p.checks += time.Since(start)
	p.rec.end(benchPrefix + "check")
	if p.post != "" {
		p.rec.begin(p.post)
	}
	return asg
}

// report records what Assign saw and placed.
func (p *timedPolicy) report(res *result) {
	res.figure("sched.assign.queued_seen", float64(p.queued))
	res.figure("sched.assign.placed", float64(p.placed))
	res.figure("sched.assign.place_ratio", ratio(p.placed, p.queued))
}

// timedSource times Next on a trace generator. Span passes through so
// the simulator still derives its horizon from the trace.
type timedSource struct {
	*trace.Generator
	rec *recorder
}

func (s timedSource) Next() (trace.Job, bool) {
	s.rec.begin("trace.next")
	defer s.rec.end("trace.next")
	return s.Generator.Next()
}
