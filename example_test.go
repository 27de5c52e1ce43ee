package wfadvice_test

import (
	"fmt"
	"log"
	"math/rand"

	"wfadvice"
)

// Wait-free consensus with Ω advice.
//
// Four computation processes propose values and must all decide the same
// proposed value — consensus, which is famously unsolvable wait-free. Four
// synchronization processes query an Ω failure detector and do the
// synchronization work; the computation processes only publish their inputs
// and poll for the decision, so each of them decides after a bounded number
// of its own steps no matter what the other computation processes do. To
// prove the point, the run pauses p1 for 100k steps: the others decide
// meanwhile, and p1 decides right after waking up.
func Example_quickstart() {
	const n = 4
	pattern := wfadvice.FailureFree(n)
	detector := wfadvice.Omega{}

	solver := wfadvice.DirectConfig{NC: n, NS: n, K: 1, LeaderVec: wfadvice.OmegaLeader}
	cfg := wfadvice.Config{
		NC:       n,
		NS:       n,
		Inputs:   wfadvice.VectorOf("ann", "bob", "cat", "dan"),
		CBody:    solver.DirectCBody,
		SBody:    solver.DirectSBody,
		Pattern:  pattern,
		History:  detector.History(pattern, 200, 42),
		MaxSteps: 2_000_000,
	}
	rt, err := wfadvice.NewRuntime(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Adversary: pause p1 for a long window; fairness only for S-processes.
	sched := &wfadvice.PauseWindow{
		Proc: wfadvice.C(0), From: 10, To: 100_000,
		Inner: &wfadvice.RoundRobin{},
	}
	res := rt.Run(&wfadvice.StopWhenDecided{Inner: sched})

	fmt.Println("inputs: ", res.Inputs)
	fmt.Println("outputs:", res.Outputs)
	fmt.Println("steps:  ", res.Steps)
	if err := wfadvice.DecidedAll(res); err != nil {
		log.Fatalf("not wait-free: %v", err)
	}
	if err := wfadvice.CheckTask(wfadvice.NewConsensus(n), res); err != nil {
		log.Fatalf("consensus violated: %v", err)
	}
	fmt.Println("consensus reached wait-free: every pauser catches up, nobody waits on anybody")
	// Output:
	// inputs:  [ann bob cat dan]
	// outputs: [ann ann ann ann]
	// steps:   100007
	// consensus reached wait-free: every pauser catches up, nobody waits on anybody
}

// Renaming: the §5 story in two acts.
//
// Act 1 — the Figure 4 algorithm run k-concurrently for increasing k: the
// name space grows exactly along the paper's diagonal j+k−1, and the k = j
// column reproduces the classic wait-free (j, 2j−1)-renaming.
//
// Act 2 — the generic Theorem 9 solver simulates Figure 4 with vector-Ωk
// advice, yielding (j, j+k−1)-renaming in EFD (Theorem 16): j of n processes
// grab distinct small names, wait-free.
func Example_renaming() {
	renamingDiagonal(4)
	renamingTheorem16(5, 4, 2)
	// Output:
	// Figure 4, j=4 participants:
	//   k=1: max name over 30 runs = 4 (paper bound j+k-1 = 4)
	//   k=2: max name over 30 runs = 5 (paper bound j+k-1 = 5)
	//   k=3: max name over 30 runs = 6 (paper bound j+k-1 = 6)
	//   k=4: max name over 30 runs = 6 (paper bound j+k-1 = 7)
	//
	// Theorem 16: (4,5)-renaming with vector-Ω2 advice on 5 processes
	//   names: [1 2 4 3 ⊥]  (distinct, all ≤ 5)
}

func renamingDiagonal(j int) {
	fmt.Printf("Figure 4, j=%d participants:\n", j)
	for k := 1; k <= j; k++ {
		maxName := 0
		for seed := int64(0); seed < 30; seed++ {
			autos := make([]wfadvice.Automaton, j)
			for i := range autos {
				autos[i] = wfadvice.NewRenamingFig4(i)
			}
			sys := wfadvice.NewAutoSystem(autos)
			if err := sys.RunKConcurrentRandom(k, rand.New(rand.NewSource(seed)), 100_000); err != nil {
				log.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			for i := 0; i < j; i++ {
				if d, ok := sys.Decided(i); ok {
					if name := d.(int); name > maxName {
						maxName = name
					}
				}
			}
		}
		fmt.Printf("  k=%d: max name over 30 runs = %d (paper bound j+k-1 = %d)\n",
			k, maxName, j+k-1)
	}
}

func renamingTheorem16(n, j, k int) {
	fmt.Printf("\nTheorem 16: (%d,%d)-renaming with vector-Ω%d advice on %d processes\n",
		j, j+k-1, k, n)
	machine := wfadvice.MachineConfig{
		NC: n, NS: n, K: k,
		Factory: func(i int, _ any) wfadvice.Automaton { return wfadvice.NewRenamingFig4(i) },
	}
	pattern := wfadvice.FailureFree(n)
	inputs := wfadvice.NewVector(n)
	for i := 0; i < j; i++ {
		inputs[i] = i + 1
	}
	cfg := wfadvice.Config{
		NC: n, NS: n, Inputs: inputs,
		CBody:    machine.SolverCBody,
		SBody:    machine.SolverSBody,
		Pattern:  pattern,
		History:  wfadvice.VectorOmegaK{K: k, GoodPos: 0}.History(pattern, 300, 7),
		MaxSteps: 6_000_000,
	}
	rt, err := wfadvice.NewRuntime(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res := rt.Run(&wfadvice.StopWhenDecided{Inner: &wfadvice.RoundRobin{}})
	if err := wfadvice.DecidedAll(res); err != nil {
		log.Fatal(err)
	}
	if err := wfadvice.CheckTask(wfadvice.NewRenaming(n, j, j+k-1), res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  names: %v  (distinct, all ≤ %d)\n", res.Outputs, j+k-1)
}

// Set agreement under crashes: k-set agreement with ¬Ωk-grade advice.
//
// Six computation processes run 2-set agreement while most of the
// synchronization side crashes: only the advice's stabilized leader
// survives. The computation processes still all decide, with at most two
// distinct values among the proposals — Theorem 9 at work through the
// direct vector-Ωk solver. The sweep over the crash count shows the
// solution is insensitive to where and when the S-side fails.
func Example_setAgreement() {
	const (
		n = 6
		k = 2
	)
	for crashes := 0; crashes <= n-1; crashes += 2 {
		crashAt := map[int]int{}
		for c := 0; c < crashes; c++ {
			crashAt[n-1-c] = 100 * (c + 1) // stagger crashes, sparing q1
		}
		pattern := wfadvice.NewPattern(n, crashAt)
		detector := wfadvice.VectorOmegaK{K: k, GoodPos: 0}

		solver := wfadvice.DirectConfig{NC: n, NS: n, K: k, LeaderVec: wfadvice.VectorLeader}
		inputs := wfadvice.NewVector(n)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("v%d", i+1)
		}
		cfg := wfadvice.Config{
			NC: n, NS: n, Inputs: inputs,
			CBody:    solver.DirectCBody,
			SBody:    solver.DirectSBody,
			Pattern:  pattern,
			History:  detector.History(pattern, 300, int64(crashes)),
			MaxSteps: 3_000_000,
		}
		rt, err := wfadvice.NewRuntime(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res := rt.Run(&wfadvice.StopWhenDecided{Inner: wfadvice.NewRandomSched(int64(crashes))})

		if err := wfadvice.DecidedAll(res); err != nil {
			log.Fatalf("crashes=%d: %v", crashes, err)
		}
		if err := wfadvice.CheckTask(wfadvice.NewSetAgreement(n, k), res); err != nil {
			log.Fatalf("crashes=%d: %v", crashes, err)
		}
		fmt.Printf("crashes=%d  outputs=%v  distinct=%d (≤ %d)  steps=%d\n",
			crashes, res.Outputs, res.Outputs.DistinctValues(), k, res.Steps)
	}
	// Output:
	// crashes=0  outputs=[v1 v1 v1 v1 v1 v1]  distinct=1 (≤ 2)  steps=877
	// crashes=2  outputs=[v1 v1 v1 v1 v1 v1]  distinct=1 (≤ 2)  steps=653
	// crashes=4  outputs=[v1 v1 v1 v1 v1 v1]  distinct=1 (≤ 2)  steps=870
}

// Separation (§2.3): classically solvable is weaker than EFD-solvable.
//
// The FirstAlive detector outputs q1 while q1 is correct and q2 otherwise.
// In the conventional model — where computation process p_i lives exactly as
// long as its synchronization twin q_i — it solves consensus between p1 and
// p2. In the EFD model it does not: knowing q1 is alive says nothing about
// whether p1 will ever take another step, and an honest run shows p2 waiting
// forever. This is the paper's concrete witness that wait-freedom with
// advice asks strictly more of a failure detector.
func Example_separation() {
	show := func(v any) string {
		if v == nil {
			return "⊥ (undecided)"
		}
		return fmt.Sprint(v)
	}

	fmt.Println("classical model (personified runs):")
	for _, tc := range []struct {
		name string
		pat  wfadvice.Pattern
	}{
		{"q1 correct", wfadvice.FailureFree(2)},
		{"q1 crashes", wfadvice.NewPattern(2, map[int]int{0: 0})},
	} {
		res := separationRun(tc.pat, &wfadvice.StopWhenDecided{
			Inner: &wfadvice.Personified{Pattern: tc.pat, Inner: &wfadvice.RoundRobin{}}})
		fmt.Printf("  %-10s  p1=%v  p2=%v\n", tc.name, show(res.Outputs[0]), show(res.Outputs[1]))
		if err := wfadvice.CheckTask(wfadvice.NewSubsetAgreement(2, 1, []int{0, 1}), res); err != nil {
			log.Fatalf("classical run violated consensus: %v", err)
		}
	}

	fmt.Println("EFD model (fair run, p1 stops taking steps while q1 stays correct):")
	pat := wfadvice.FailureFree(2)
	res := separationRun(pat, &wfadvice.Exclude{Procs: []wfadvice.Proc{wfadvice.C(0)}, Inner: &wfadvice.RoundRobin{}})
	fmt.Printf("  p1=%v  p2=%v after %d steps\n", show(res.Outputs[0]), show(res.Outputs[1]), res.Steps)
	if res.Outputs[1] != nil {
		log.Fatal("unexpected: p2 decided")
	}
	fmt.Println("  p2 starved: FirstAlive does NOT EFD-solve 2-process consensus (Prop 3 is strict)")
	// Output:
	// classical model (personified runs):
	//   q1 correct  p1=alpha  p2=alpha
	//   q1 crashes  p1=⊥ (undecided)  p2=beta
	// EFD model (fair run, p1 stops taking steps while q1 stays correct):
	//   p1=⊥ (undecided)  p2=⊥ (undecided) after 60000 steps
	//   p2 starved: FirstAlive does NOT EFD-solve 2-process consensus (Prop 3 is strict)
}

func separationRun(pat wfadvice.Pattern, sched wfadvice.Scheduler) *wfadvice.Result {
	cfg := wfadvice.Config{
		NC: 2, NS: 2,
		Inputs:   wfadvice.VectorOf("alpha", "beta"),
		CBody:    separationCBody,
		SBody:    separationSBody,
		Pattern:  pat,
		History:  wfadvice.FirstAlive{}.History(pat, 0, 1),
		MaxSteps: 60_000,
	}
	rt, err := wfadvice.NewRuntime(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return rt.Run(sched)
}

// separationKeys is the separation bodies' register table: the detector
// relay (slot 0) and the two input registers (slot 1+i). The bodies mirror
// internal/core/separation.go through the public runtime API.
var separationKeys = []string{"fa", wfadvice.InKey(0), wfadvice.InKey(1)}

func separationCBody(i int) wfadvice.Body {
	return func(e wfadvice.Ops) {
		regs := e.Bind(separationKeys)
		regs.Write(1+i, e.Input())
		for {
			target, ok := regs.ReadInt(0)
			if !ok {
				continue
			}
			if v := regs.Read(1 + target); v != nil {
				e.Decide(v)
				return
			}
		}
	}
}

func separationSBody(_ int) wfadvice.Body {
	return func(e wfadvice.Ops) {
		regs := e.Bind(separationKeys)
		for {
			regs.Write(0, e.QueryFD())
		}
	}
}

// The puzzle (Theorem 7): advice good enough for k-set agreement among one
// set of k+1 processes is good enough for k-set agreement among everyone.
//
// The pipeline runs the paper's constructive route end to end: (1) a
// black-box algorithm solves (U,k)-agreement on U = {p1..p_{k+1}}; (2) the
// Figure 1 reduction extracts a ¬Ωk stream from that algorithm, checked
// against the detector's specification; (3) by the ¬Ωk ≡ vector-Ωk
// equivalence, the same information solves k-set agreement among all n.
func Example_puzzle() {
	for _, tc := range []struct{ n, k int }{{5, 1}, {6, 2}, {7, 3}} {
		rep, err := wfadvice.RunPuzzle(wfadvice.PuzzleConfig{N: tc.n, K: tc.k, Seed: 9})
		if err != nil {
			log.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		fmt.Printf("n=%d k=%d |U|=%d\n", tc.n, tc.k, tc.k+1)
		fmt.Printf("  subset (U,%d)-agreement solved:    %v\n", tc.k, rep.SubsetOK)
		fmt.Printf("  ¬Ω%d extracted from the black box: %v\n", tc.k, rep.ExtractionOK)
		fmt.Printf("  global %d-set agreement outputs:   %v (distinct=%d)\n",
			tc.k, rep.GlobalResult.Outputs, rep.GlobalResult.Outputs.DistinctValues())
	}
	// Output:
	// n=5 k=1 |U|=2
	//   subset (U,1)-agreement solved:    true
	//   ¬Ω1 extracted from the black box: true
	//   global 1-set agreement outputs:   [2002 2002 2002 2002 2002] (distinct=1)
	// n=6 k=2 |U|=3
	//   subset (U,2)-agreement solved:    true
	//   ¬Ω2 extracted from the black box: true
	//   global 2-set agreement outputs:   [2000 2000 2000 2000 2000 2000] (distinct=1)
	// n=7 k=3 |U|=4
	//   subset (U,3)-agreement solved:    true
	//   ¬Ω3 extracted from the black box: true
	//   global 3-set agreement outputs:   [2002 2002 2002 2002 2002 2002 2002] (distinct=1)
}
