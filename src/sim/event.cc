#include "event.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hh"

namespace acs {
namespace sim {

void
EventQueue::reserve(std::size_t expected)
{
    heap_.reserve(expected);
}

void
EventQueue::push(double time_s, EventKind kind, std::uint64_t payload)
{
    // Branch-then-throw: panicIf would materialize the message
    // string on every push, and push is the hottest call in a
    // trace-scale run.
    if (std::isnan(time_s))
        panic("EventQueue: event time is NaN");
    if (!(time_s >= 0.0))
        panic("EventQueue: event time must be >= 0, got " +
              std::to_string(time_s));
    heap_.push_back(Event{time_s, nextSeq_++, kind, payload});
    std::push_heap(heap_.begin(), heap_.end(), After{});
}

Event
EventQueue::pop()
{
    if (heap_.empty())
        panic("EventQueue: pop on empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
}

const Event &
EventQueue::peek() const
{
    if (heap_.empty())
        panic("EventQueue: peek on empty queue");
    return heap_.front();
}

} // namespace sim
} // namespace acs
