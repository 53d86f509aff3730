// Package sched implements the paper's §4.3 thread-pool modification as a
// real concurrent component: instead of one global task queue that any
// worker may steal from (PyTorch's stock inter-op pool), workers are
// organized into core groups of two "SMT siblings" that share one private
// task queue. An inference dispatched to a group stays on that group —
// "one inference instance will always run on the same physical core, and
// other threads on other physical cores cannot steal the inference task."
//
// Go cannot pin goroutines to hardware threads, so the *scheduling
// policy* (queue topology, no cross-core stealing, sibling cooperation on
// one batch) is real, while hardware placement is the runtime's business;
// the performance consequences of placement are what package cpusim
// models. This package is the software architecture a production port
// would keep.
package sched

import (
	"errors"
	"fmt"
	"sync"
)

// Task is one unit of work. Tasks dispatched to the same group may run
// concurrently on the group's two workers.
type Task func()

// Policy selects the queue topology.
type Policy int

const (
	// GlobalQueue is the stock design: one queue, every worker pulls
	// from it (work can migrate freely across cores).
	GlobalQueue Policy = iota
	// PerCoreQueue is the paper's design: two workers per group share a
	// private queue; no cross-group stealing.
	PerCoreQueue
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case GlobalQueue:
		return "global-queue"
	case PerCoreQueue:
		return "per-core-queue"
	default:
		return "invalid"
	}
}

// Pool is a hyperthreading-aware worker pool. Construct with NewPool;
// Close releases the workers.
type Pool struct {
	policy Policy
	groups int

	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]Task // one per group (or a single global queue)
	closed bool

	// execCount is the per-group count of started tasks (guarded by mu);
	// it lets tests verify placement.
	execCount []int64

	wg sync.WaitGroup
}

// NewPool starts a pool with `groups` core groups of two workers each.
func NewPool(policy Policy, groups int) (*Pool, error) {
	if groups < 1 {
		return nil, fmt.Errorf("sched: %d groups", groups)
	}
	if policy != GlobalQueue && policy != PerCoreQueue {
		return nil, fmt.Errorf("sched: invalid policy %d", policy)
	}
	p := &Pool{policy: policy, groups: groups, execCount: make([]int64, groups)}
	p.cond = sync.NewCond(&p.mu)
	nq := groups
	if policy == GlobalQueue {
		nq = 1
	}
	p.queues = make([][]Task, nq)
	for g := 0; g < groups; g++ {
		for w := 0; w < 2; w++ {
			p.wg.Add(1)
			go p.worker(g)
		}
	}
	return p, nil
}

// Groups returns the number of core groups.
func (p *Pool) Groups() int { return p.groups }

// Policy returns the queue topology.
func (p *Pool) Policy() Policy { return p.policy }

// queueFor maps a group to its queue index.
func (p *Pool) queueFor(group int) int {
	if p.policy == GlobalQueue {
		return 0
	}
	return group
}

// Submit enqueues a task for the given core group. Under GlobalQueue the
// group is only advisory (any worker may take it); under PerCoreQueue the
// task is guaranteed to execute on the named group. Submit fails after
// Close and on an out-of-range group.
func (p *Pool) Submit(group int, task Task) error {
	if group < 0 || group >= p.groups {
		return fmt.Errorf("sched: group %d out of range [0,%d)", group, p.groups)
	}
	if task == nil {
		return errors.New("sched: nil task")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("sched: pool is closed")
	}
	q := p.queueFor(group)
	p.queues[q] = append(p.queues[q], task)
	p.cond.Broadcast()
	return nil
}

// worker runs one hardware context of group g.
func (p *Pool) worker(g int) {
	defer p.wg.Done()
	q := p.queueFor(g)
	for {
		p.mu.Lock()
		for len(p.queues[q]) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queues[q]) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		task := p.queues[q][0]
		p.queues[q] = p.queues[q][1:]
		// Count at dequeue: a task may signal its own completion, and the
		// caller it wakes must already see it counted.
		p.execCount[g]++
		p.mu.Unlock()

		task()
	}
}

// ExecCounts returns how many tasks each group's workers have started.
func (p *Pool) ExecCounts() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.execCount...)
}

// Close drains outstanding tasks and stops the workers. It is safe to
// call once; Submit after Close fails.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
