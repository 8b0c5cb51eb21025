package debug

import "sync"

// Publisher fans position updates out to subscribers (the debughttp SSE
// stream) and keeps the last one for readers that poll. Sends never
// block the debugging session: a subscriber whose buffer is full loses
// intermediate updates and receives the next one — positions are
// absolute, so a dropped update is only a skipped frame, never
// corruption.
type Publisher struct {
	mu   sync.Mutex
	subs map[int]chan []byte
	next int
	last []byte
}

// NewPublisher returns an empty publisher.
func NewPublisher() *Publisher {
	return &Publisher{subs: make(map[int]chan []byte)}
}

// Subscribe registers a subscriber with the given buffer size and
// returns its channel plus a cancel function. Cancel closes the
// channel; it is safe to call twice.
func (p *Publisher) Subscribe(buf int) (<-chan []byte, func()) {
	if buf < 1 {
		buf = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.next
	p.next++
	ch := make(chan []byte, buf)
	p.subs[id] = ch
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			p.mu.Lock()
			defer p.mu.Unlock()
			delete(p.subs, id)
			close(ch)
		})
	}
	return ch, cancel
}

// Publish makes b the last published update and delivers it to every
// subscriber with buffer room. b must not be modified afterwards.
func (p *Publisher) Publish(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.last = b
	for _, ch := range p.subs {
		select {
		case ch <- b:
		default:
		}
	}
}

// Last returns the last published update (nil before the first). The
// bytes are shared with every other reader and must not be modified.
func (p *Publisher) Last() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// Subscribers returns the current subscriber count.
func (p *Publisher) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}
