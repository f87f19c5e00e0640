/**
 * @file
 * The discrete-event engine: a virtual clock and a deterministic
 * event queue.
 *
 * Everything in acs::sim advances on simulated seconds, never wall
 * time. The queue pops in (time, insertion sequence) order: two
 * events at the same instant pop in the order they were pushed, so a
 * run's event interleaving — and therefore every downstream metric —
 * is a pure function of the inputs and the RNG seed.
 *
 * The queue is a binary min-heap. Pending events stay few even at
 * trace scale: measured, every replica run of perfbench's fleet-size
 * sizeFleet held at most 2, and its 1.2M-request cluster replay at
 * most 15. At that depth an O(log n) sift is cheaper than the
 * bookkeeping of a bucketed (calendar) queue.
 */

#ifndef ACS_SIM_EVENT_HH
#define ACS_SIM_EVENT_HH

#include <cstdint>
#include <vector>

namespace acs {
namespace sim {

/** What a scheduled event means to the replica loop. */
enum class EventKind
{
    ARRIVAL,     //!< a request joins the admission queue
    ITER_DONE,   //!< the in-flight scheduler iteration completes
    CLIENT_WAKE, //!< a closed-loop client finishes its think time
    KV_DONE,     //!< a prefill->decode KV transfer completes (cluster)
};

/** One scheduled occurrence on the virtual timeline. */
struct Event
{
    double timeS = 0.0;        //!< virtual time of the occurrence
    std::uint64_t seq = 0;     //!< insertion order (FIFO tie-break)
    EventKind kind = EventKind::ARRIVAL;
    std::uint64_t payload = 0; //!< kind-specific (e.g. client index)
};

/**
 * Deterministic queue of pending events, popped in exact (time, seq)
 * order.
 *
 * Not thread-safe: one queue belongs to one replica simulation, and
 * the event loop itself is single-threaded by design (fleet-sizing
 * parallelism is across independent replicas, never within one).
 */
class EventQueue
{
  public:
    /**
     * Pre-size the internal storage for about @p expected pending
     * events, so the steady-state loop never allocates. Replica and
     * cluster setup call this with their in-flight high-water
     * estimate; calling it mid-run is allowed.
     */
    void reserve(std::size_t expected);

    /**
     * Schedule @p kind at virtual time @p time_s. Panics (with the
     * offending value in the message) on NaN or negative times.
     */
    void push(double time_s, EventKind kind, std::uint64_t payload = 0);

    /** Remove and return the earliest event (fatal when empty). */
    Event pop();

    /** Earliest pending event without removing it (fatal when empty). */
    const Event &peek() const;

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

  private:
    /** Later (time, seq) sorts lower, making front() the earliest. */
    struct After
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.timeS != b.timeS)
                return a.timeS > b.timeS;
            return a.seq > b.seq;
        }
    };

    std::uint64_t nextSeq_ = 0;
    std::vector<Event> heap_;
};

} // namespace sim
} // namespace acs

#endif // ACS_SIM_EVENT_HH
