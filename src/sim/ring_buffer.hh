/**
 * @file
 * Amortized-allocation-free FIFO ring for the sim core's queued
 * decode items (PipelineStage's arbitrated path). A deque
 * allocates and frees block nodes as its window slides; this ring
 * reuses one power-of-two buffer and only reallocates on growth, so
 * the steady-state decode path performs no allocation once warm.
 */

#ifndef PIMPHONY_SIM_RING_BUFFER_HH
#define PIMPHONY_SIM_RING_BUFFER_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace pimphony {
namespace sim {

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    T &
    front()
    {
        return slots_[head_];
    }

    /** The i-th queued element (0 = front). */
    T &
    at(std::size_t i)
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    /**
     * Remove and return the i-th element, preserving the order of
     * the rest. i == 0 is the O(1) pop fast path (the common FIFO
     * pick); interior removal shifts the O(n - i) tail — selection
     * queues stay tiny.
     */
    T
    takeAt(std::size_t i)
    {
        T out = std::move(at(i));
        if (i == 0) {
            slots_[head_] = T{};
            head_ = (head_ + 1) & (slots_.size() - 1);
            --count_;
            return out;
        }
        for (std::size_t j = i; j + 1 < count_; ++j)
            at(j) = std::move(at(j + 1));
        slots_[(head_ + count_ - 1) & (slots_.size() - 1)] = T{};
        --count_;
        return out;
    }

    void
    push(T &&v)
    {
        if (count_ == slots_.size())
            grow();
        slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(v);
        ++count_;
    }

    void
    pop()
    {
        slots_[head_] = T{};
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
    }

  private:
    void
    grow()
    {
        std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
        slots_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace sim
} // namespace pimphony

#endif // PIMPHONY_SIM_RING_BUFFER_HH
