package auto

// Clock is a trivial automaton that counts its own steps and never decides.
// The Figure 2 / Theorem 14 experiments simulate clocks to measure which
// simulated codes make progress.
type Clock struct {
	ticks int
}

var _ Automaton = (*Clock)(nil)

// NewClock returns a fresh clock.
func NewClock() *Clock { return &Clock{} }

// WriteValue implements Automaton.
func (c *Clock) WriteValue() Value { return c.ticks }

// OnView implements Automaton.
func (c *Clock) OnView(View) { c.ticks++ }

// Decided implements Automaton: clocks never decide.
func (c *Clock) Decided() (Value, bool) { return nil, false }

// Counter is an automaton that decides its input after a fixed number of
// steps; a minimal terminating workload.
type Counter struct {
	limit int
	input Value
	ticks int
}

var _ Automaton = (*Counter)(nil)

// NewCounter returns an automaton deciding input after limit steps.
func NewCounter(limit int, input Value) *Counter {
	return &Counter{limit: limit, input: input}
}

// WriteValue implements Automaton.
func (c *Counter) WriteValue() Value { return c.ticks }

// OnView implements Automaton.
func (c *Counter) OnView(View) {
	if c.ticks < c.limit {
		c.ticks++
	}
}

// Decided implements Automaton.
func (c *Counter) Decided() (Value, bool) {
	if c.ticks >= c.limit {
		return c.input, true
	}
	return nil, false
}
