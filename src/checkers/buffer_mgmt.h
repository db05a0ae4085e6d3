#ifndef MCHECK_CHECKERS_BUFFER_MGMT_H
#define MCHECK_CHECKERS_BUFFER_MGMT_H

#include "checkers/checker.h"
#include "metal/feasibility.h"

#include <istream>
#include <ostream>

namespace mc::checkers {

/**
 * Buffer management checker (paper Section 6) — the conservative
 * four-rule discipline that makes manual reference counting checkable:
 *
 *  1. hardware handlers begin execution with a data buffer they must
 *     free;
 *  2. software handlers begin without a buffer and must allocate one
 *     before sending;
 *  3. after a free, no send may occur until another buffer is allocated;
 *  4. once a buffer is allocated it must be freed before another
 *     allocation.
 *
 * Frees are FREE_DB() or calls to routines in the spec's freeing table;
 * buffer uses are reads/writes/sends or calls to routines in the
 * buffer-using table (both tables are also checked for consistency when
 * the listed routines are themselves analyzed).
 *
 * Annotations (Section 6's false-positive escape hatch):
 *   has_buffer()       asserts a buffer is present;
 *   no_free_needed()   waives the must-free obligation on this path.
 * An annotation that changes nothing on any path is reported as
 * unnecessary — the paper's "checkable comments".
 *
 * `valueSensitiveFrees` enables the Section 6.1 twelve-line refinement:
 * branching on a MAYBE_FREE_DB_x() call takes the freed state on the true
 * edge only. With it disabled the call conservatively frees on both
 * edges, reproducing the paper's "small cascade of errors".
 *
 * After the Section 11 betrayal (a manual double-increment of the
 * reference count that blinded the tool), the checker "aggressively
 * objects" to any DB_REFCNT_INCR() occurrence.
 */
class BufferMgmtChecker : public Checker
{
  public:
    struct Options
    {
        bool value_sensitive_frees = true;
        /** Path-feasibility pruning for the buffer-state walk. */
        metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off;
    };

    BufferMgmtChecker() = default;
    explicit BufferMgmtChecker(Options options) : options_(options) {}

    std::string name() const override { return "buffer_mgmt"; }

    void checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                       CheckContext& ctx) override;

    void
    reset() override
    {
        Checker::reset();
        annotations_seen_ = 0;
        annotations_unneeded_ = 0;
    }

    void
    absorb(const Checker& other) override
    {
        Checker::absorb(other);
        const auto& o = static_cast<const BufferMgmtChecker&>(other);
        annotations_seen_ += o.annotations_seen_;
        annotations_unneeded_ += o.annotations_unneeded_;
    }

    bool
    hasRunState() const override
    {
        return annotations_seen_ != 0 || annotations_unneeded_ != 0;
    }

    void
    saveState(std::ostream& os) const override
    {
        Checker::saveState(os);
        os << "annotations " << annotations_seen_ << ' '
           << annotations_unneeded_ << '\n';
    }

    bool
    loadState(std::istream& is) override
    {
        if (!Checker::loadState(is))
            return false;
        std::string tag;
        int seen = 0;
        int unneeded = 0;
        if (!(is >> tag >> seen >> unneeded) || tag != "annotations" ||
            seen < 0 || unneeded < 0)
            return false;
        annotations_seen_ = seen;
        annotations_unneeded_ = unneeded;
        return true;
    }

    /** Annotation sites encountered across the run. */
    int annotationsSeen() const { return annotations_seen_; }

    /** Annotations that changed nothing on any path (reported). */
    int annotationsUnneeded() const { return annotations_unneeded_; }

  private:
    Options options_;
    int annotations_seen_ = 0;
    int annotations_unneeded_ = 0;
};

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_BUFFER_MGMT_H
