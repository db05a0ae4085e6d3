#include "support/thread_pool.h"

#include "support/fault_injection.h"
#include "support/metrics.h"

#include <exception>
#include <iostream>
#include <string>
#include <utility>

namespace mc::support {

unsigned
ThreadPool::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned jobs)
{
    jobs_ = jobs == 0 ? defaultJobs() : jobs;
    unsigned workers = jobs_ - 1;
    queues_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        queues_.push_back(std::make_unique<WorkQueue>());
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    unsigned q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                 static_cast<unsigned>(queues_.size());
    {
        std::lock_guard<std::mutex> qlock(queues_[q]->mu);
        queues_[q]->tasks.push_back(std::move(task));
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++pending_;
    }
    cv_.notify_one();
}

bool
ThreadPool::runOneTask(unsigned self)
{
    std::function<void()> task;
    // Own queue first (back: most recently pushed, cache-warm) ...
    {
        WorkQueue& own = *queues_[self];
        std::lock_guard<std::mutex> lock(own.mu);
        if (!own.tasks.empty()) {
            task = std::move(own.tasks.back());
            own.tasks.pop_back();
        }
    }
    // ... then steal the oldest task from the next busy victim.
    if (!task) {
        for (std::size_t k = 1; !task && k < queues_.size(); ++k) {
            WorkQueue& victim =
                *queues_[(self + k) % queues_.size()];
            std::lock_guard<std::mutex> lock(victim.mu);
            if (!victim.tasks.empty()) {
                task = std::move(victim.tasks.front());
                victim.tasks.pop_front();
            }
        }
    }
    if (!task)
        return false;
    // Decrement at dequeue, not completion: `pending_` counts *queued*
    // tasks, so idle workers sleep on the cv while a long task runs
    // instead of spinning on "pending but nothing to steal". The dtor's
    // drain stays correct — pending_ == 0 iff every queue is empty, and
    // join() waits out any task still executing.
    {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
    }
    task();
    return true;
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        if (runOneTask(self))
            continue;
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
        if (stop_ && pending_ == 0)
            return;
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)>& body)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        for (std::size_t i = 0; i < n; ++i) {
            if (fault::armed())
                fault::probe("pool.task", std::to_string(i));
            body(i);
        }
        return;
    }

    /** Join state shared between the caller and the helper tasks. */
    struct ForState
    {
        std::atomic<std::size_t> next{0};
        std::size_t n = 0;
        const std::function<void(std::size_t)>* body = nullptr;
        std::mutex mu;
        std::condition_variable done;
        unsigned running = 0;
        std::exception_ptr error;
        /** Body exceptions discarded because error was already set. */
        std::size_t suppressed = 0;
        /** what() of the first few suppressed exceptions, for the log. */
        std::vector<std::string> suppressed_what;
    };
    auto st = std::make_shared<ForState>();
    st->n = n;
    st->body = &body;

    auto runner = [st] {
        std::size_t i;
        while ((i = st->next.fetch_add(1, std::memory_order_relaxed)) <
               st->n) {
            try {
                if (fault::armed())
                    fault::probe("pool.task", std::to_string(i));
                (*st->body)(i);
            } catch (...) {
                std::exception_ptr ep = std::current_exception();
                std::lock_guard<std::mutex> lock(st->mu);
                if (!st->error) {
                    st->error = ep;
                } else {
                    // Only the first exception reaches the caller; the
                    // rest are counted and logged at the join so a
                    // multi-failure run is still observable.
                    ++st->suppressed;
                    if (st->suppressed_what.size() < 4) {
                        try {
                            std::rethrow_exception(ep);
                        } catch (const std::exception& e) {
                            st->suppressed_what.emplace_back(e.what());
                        } catch (...) {
                            st->suppressed_what.emplace_back(
                                "unknown exception");
                        }
                    }
                }
                // Drain remaining indices: nothing else should run.
                st->next.store(st->n, std::memory_order_relaxed);
            }
        }
    };

    unsigned helpers = static_cast<unsigned>(
        std::min<std::size_t>(workers_.size(), n - 1));
    st->running = helpers;
    for (unsigned h = 0; h < helpers; ++h) {
        submit([st, runner] {
            runner();
            std::lock_guard<std::mutex> lock(st->mu);
            if (--st->running == 0)
                st->done.notify_all();
        });
    }
    runner(); // the caller is the final lane

    {
        std::unique_lock<std::mutex> lock(st->mu);
        st->done.wait(lock, [&] { return st->running == 0; });
        if (st->suppressed > 0) {
            MetricsRegistry& metrics = MetricsRegistry::global();
            if (metrics.enabled())
                metrics.counter("pool.suppressed_exceptions")
                    .add(st->suppressed);
            std::cerr << "mccheck: parallelFor: suppressed "
                      << st->suppressed
                      << " additional exception(s) after the first:";
            for (const std::string& what : st->suppressed_what)
                std::cerr << ' ' << what << ';';
            if (st->suppressed > st->suppressed_what.size())
                std::cerr << " ...";
            std::cerr << '\n';
        }
        if (st->error)
            std::rethrow_exception(st->error);
    }
}

} // namespace mc::support
