// Package ros provides the Robot-Operating-System-like runtime that hosts a
// MAVBench workload on the (virtual) companion computer.
//
// The original benchmark suite runs as a graph of ROS nodes that communicate
// through publish/subscribe topics and blocking service calls, scheduled by
// the Linux kernel onto the TX2's CPU cores. This package reproduces the
// pieces of that runtime the evaluation depends on:
//
//   - a node graph with topics (non-blocking FIFO pub/sub) and services
//     (blocking request/response), mirroring Figure 7's dataflows;
//   - an executor that owns a fixed number of virtual cores; every callback
//     declares its compute cost and occupies one core for that much virtual
//     time, so core-count scaling and queuing delays emerge naturally;
//   - per-node and per-kernel accounting feeding the telemetry package.
//
// Everything runs on the discrete-event engine in package des, making runs
// deterministic and letting the closed-loop simulator share a single virtual
// timeline with the physics and energy models.
package ros

import (
	"fmt"
	"sort"
	"time"

	"mavbench/internal/des"
)

// Message is the payload delivered to subscribers. Concrete message types
// (point clouds, poses, trajectories, ...) are defined by the packages that
// publish them.
type Message any

// CallbackResult describes what a callback consumed; the executor uses it to
// charge compute time and attribute it to a kernel for reporting.
type CallbackResult struct {
	// Cost is the virtual compute time the callback consumed on one core.
	Cost time.Duration
	// Kernel attributes the cost to a named computational kernel (for the
	// Table I / Figure 15 style reports). Empty means unattributed.
	Kernel string
}

// Handler processes one message and reports its compute cost.
type Handler func(now time.Duration, msg Message) CallbackResult

// ServiceHandler processes a service request and returns a response together
// with its compute cost.
type ServiceHandler func(now time.Duration, req Message) (Message, CallbackResult)

// Graph is the node graph plus its executor. It is the MAVBench "companion
// computer" runtime.
type Graph struct {
	engine *des.Engine

	topics   map[string]*Topic
	services map[string]*Service
	nodes    map[string]*Node

	exec *Executor
}

// NewGraph builds an empty node graph whose callbacks execute on an executor
// with the given number of cores, scheduled on engine.
func NewGraph(engine *des.Engine, cores int) *Graph {
	g := &Graph{
		engine:   engine,
		topics:   map[string]*Topic{},
		services: map[string]*Service{},
		nodes:    map[string]*Node{},
	}
	g.exec = NewExecutor(engine, cores)
	return g
}

// Engine returns the discrete-event engine the graph runs on.
func (g *Graph) Engine() *des.Engine { return g.engine }

// Executor returns the graph's core-limited executor.
func (g *Graph) Executor() *Executor { return g.exec }

// Node registers (or returns the existing) node with the given name.
func (g *Graph) Node(name string) *Node {
	if n, ok := g.nodes[name]; ok {
		return n
	}
	n := &Node{name: name, graph: g}
	g.nodes[name] = n
	return n
}

// Nodes returns the registered node names in sorted order.
func (g *Graph) Nodes() []string {
	names := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Topic returns (creating if needed) the topic with the given name.
func (g *Graph) Topic(name string) *Topic {
	if t, ok := g.topics[name]; ok {
		return t
	}
	t := &Topic{name: name, graph: g}
	g.topics[name] = t
	return t
}

// Service returns the registered service with the given name, or nil.
func (g *Graph) Service(name string) *Service { return g.services[name] }

// Node is a named participant in the graph. Nodes exist mostly for
// accounting and introspection; subscriptions and publications are expressed
// through them so dataflow diagrams (Figure 7) can be reconstructed.
type Node struct {
	name  string
	graph *Graph

	subscriptions []string
	publications  []string
	services      []string
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Subscriptions returns the topic names the node subscribes to.
func (n *Node) Subscriptions() []string { return append([]string(nil), n.subscriptions...) }

// Publications returns the topic names the node publishes to.
func (n *Node) Publications() []string { return append([]string(nil), n.publications...) }

// Services returns the service names the node provides.
func (n *Node) Services() []string { return append([]string(nil), n.services...) }

// Subscribe registers handler for every message published on topic. Messages
// are dispatched through the executor, so the handler's reported cost
// occupies a core and delays later work. queueDepth bounds the number of
// undelivered messages per subscription; when the queue is full the oldest
// message is dropped, like a ROS subscriber with a bounded queue.
func (n *Node) Subscribe(topic string, queueDepth int, handler Handler) {
	t := n.graph.Topic(topic)
	t.subscribe(n, queueDepth, handler)
	n.subscriptions = append(n.subscriptions, topic)
}

// Publisher declares that the node publishes on the topic and returns a
// publish function bound to it.
func (n *Node) Publisher(topic string) func(Message) {
	t := n.graph.Topic(topic)
	n.publications = append(n.publications, topic)
	return func(msg Message) { t.Publish(msg) }
}

// ProvideService registers a blocking service under the given name.
func (n *Node) ProvideService(name string, handler ServiceHandler) {
	if handler == nil {
		panic("ros: ProvideService with nil handler")
	}
	n.graph.services[name] = &Service{name: name, node: n, handler: handler, graph: n.graph}
	n.services = append(n.services, name)
}

// Topic is a named pub/sub channel.
type Topic struct {
	name        string
	graph       *Graph
	subscribers []*subscription
	published   uint64
	dropped     uint64
}

type subscription struct {
	node       *Node
	handler    Handler
	queueDepth int
	inFlight   int
	backlog    []Message
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Published returns the number of messages published on this topic.
func (t *Topic) Published() uint64 { return t.published }

// Dropped returns the number of messages dropped because a subscriber's
// queue overflowed.
func (t *Topic) Dropped() uint64 { return t.dropped }

// Subscribers returns the number of subscriptions.
func (t *Topic) Subscribers() int { return len(t.subscribers) }

func (t *Topic) subscribe(n *Node, queueDepth int, handler Handler) {
	if handler == nil {
		panic("ros: Subscribe with nil handler")
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	t.subscribers = append(t.subscribers, &subscription{node: n, handler: handler, queueDepth: queueDepth})
}

// Publish delivers msg to every subscriber through the executor. Publishing
// itself is free (it models a zero-copy intra-process transport); each
// subscriber's callback cost is charged when it runs. With no subscriber the
// message is counted in Published and discarded, so a producer whose message
// is costly to build should check Subscribers first, as the simulator's
// sensors do.
func (t *Topic) Publish(msg Message) {
	t.published++
	for _, sub := range t.subscribers {
		sub := sub
		if sub.inFlight+len(sub.backlog) >= sub.queueDepth {
			// Queue full: drop the oldest backlog entry (or this message if
			// nothing is queued but the handler is saturated).
			if len(sub.backlog) > 0 {
				sub.backlog = sub.backlog[1:]
				sub.backlog = append(sub.backlog, msg)
			}
			t.dropped++
			continue
		}
		if sub.inFlight > 0 {
			sub.backlog = append(sub.backlog, msg)
			continue
		}
		t.dispatch(sub, msg)
	}
}

func (t *Topic) dispatch(sub *subscription, msg Message) {
	sub.inFlight++
	t.graph.exec.Submit(sub.node.name, func(now time.Duration) CallbackResult {
		return sub.handler(now, msg)
	}, func() {
		sub.inFlight--
		if len(sub.backlog) > 0 {
			next := sub.backlog[0]
			sub.backlog = sub.backlog[1:]
			t.dispatch(sub, next)
		}
	})
}

// Service is a blocking request/response endpoint.
type Service struct {
	name    string
	node    *Node
	handler ServiceHandler
	graph   *Graph
	calls   uint64
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// Calls returns how many times the service has been invoked.
func (s *Service) Calls() uint64 { return s.calls }

// Call invokes the service asynchronously on the executor: the handler's
// cost is charged on a core and done is invoked with the response once it
// completes. This mirrors a ROS service call made from a node that continues
// only when the response arrives.
func (s *Service) Call(req Message, done func(resp Message)) {
	s.calls++
	var resp Message
	s.graph.exec.Submit(s.node.name, func(now time.Duration) CallbackResult {
		r, res := s.handler(now, req)
		resp = r
		return res
	}, func() {
		if done != nil {
			done(resp)
		}
	})
}

// CallService looks up and calls the named service, returning an error when
// the service does not exist.
func (g *Graph) CallService(name string, req Message, done func(resp Message)) error {
	s := g.services[name]
	if s == nil {
		return fmt.Errorf("ros: unknown service %q", name)
	}
	s.Call(req, done)
	return nil
}
