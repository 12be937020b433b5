#include "sim/lane_crew.h"

namespace pdp
{

LaneCrew::LaneCrew(size_t lanes, std::function<void(size_t)> walk,
                   unsigned helpers)
    : lanes_(lanes), walk_(std::move(walk))
{
    threads_.reserve(helpers);
    for (unsigned h = 0; h < helpers; ++h)
        threads_.emplace_back([this] { helperLoop(); });
}

LaneCrew::~LaneCrew()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
LaneCrew::start()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        next_.store(0);
        running_ = static_cast<unsigned>(threads_.size());
        ++round_;
    }
    wake_.notify_all();
}

void
LaneCrew::finish()
{
    claimLanes();
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return running_ == 0; });
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
LaneCrew::claimLanes()
{
    for (size_t c = next_.fetch_add(1); c < lanes_; c = next_.fetch_add(1)) {
        try {
            walk_(c);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

void
LaneCrew::helperLoop()
{
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] { return stop_ || round_ != seen; });
            if (stop_)
                return;
            seen = round_;
        }
        claimLanes();
        std::lock_guard<std::mutex> lock(mutex_);
        if (--running_ == 0)
            done_.notify_one();
    }
}

} // namespace pdp
