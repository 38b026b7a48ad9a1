/**
 * @file
 * One-shot callbacks for the simulator's hot path.
 *
 * A Callback holds any `void()` callable. Callables that are
 * trivially copyable and fit in kInlineBytes -- the `[this, slot]`
 * lambdas the cores and the memory system hand on once per cache
 * line -- are stored inline, so creating, moving and running
 * them never touches the allocator. Any other callable (a
 * std::function, a capture of non-trivial state) is boxed on the
 * heap. The callable's type alone picks the path.
 *
 * The type-erased state is a Thunk: a plain, trivially copyable
 * record that the event queue keeps in its heap entries and moves
 * with memcpy. A Thunk owns its box but has no destructor; Callback
 * is the owning wrapper everything outside the queue uses.
 */

#ifndef TT_SIM_CALLBACK_HH
#define TT_SIM_CALLBACK_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace tt::sim {

/** Type-erased storage of one callable; see Callback for ownership. */
struct Thunk
{
    static constexpr std::size_t kInlineBytes = 24;

    enum class Op
    {
        kRun,    ///< invoke the callable, then release it
        kRelease ///< release it without invoking
    };

    /** Null for an empty thunk. */
    void (*op)(Thunk &, Op) = nullptr;
    alignas(void *) unsigned char storage[kInlineBytes] = {};

    /** Invoke, then release; the thunk is spent afterwards. */
    void run() { op(*this, Op::kRun); }

    /** Release the callable without running it; leaves it empty. */
    void
    release()
    {
        if (op != nullptr)
            op(*this, Op::kRelease);
        op = nullptr;
    }
};

static_assert(std::is_trivially_copyable_v<Thunk>);

/** An owned, move-only, one-shot `void()` callable. */
class Callback
{
  public:
    Callback() = default;
    Callback(std::nullptr_t) {}

    template <class F, class D = std::decay_t<F>,
              std::enable_if_t<!std::is_same_v<D, Callback> &&
                                   std::is_invocable_r_v<void, D &>,
                               int> = 0>
    Callback(F &&fn)
    {
        if constexpr (std::is_same_v<D, std::function<void()>>) {
            if (!fn)
                return; // an empty callable stays an empty Callback
        }
        if constexpr (kInline<D>) {
            ::new (static_cast<void *>(thunk_.storage))
                D(std::forward<F>(fn));
            thunk_.op = &inlineOp<D>;
        } else {
            D *box = new D(std::forward<F>(fn));
            std::memcpy(thunk_.storage, &box, sizeof box);
            thunk_.op = &boxedOp<D>;
        }
    }

    Callback(Callback &&other) noexcept : thunk_(other.take()) {}

    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            thunk_.release();
            thunk_ = other.take();
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { thunk_.release(); }

    explicit operator bool() const { return thunk_.op != nullptr; }

    /** Invoke once; the Callback is empty afterwards. */
    void
    operator()()
    {
        Thunk thunk = take();
        thunk.run();
    }

    /** Hand the type-erased state to a new owner; leaves this empty. */
    Thunk
    take()
    {
        Thunk thunk = thunk_;
        thunk_.op = nullptr;
        return thunk;
    }

    /** True when callables of type F are stored without allocating. */
    template <class F>
    static constexpr bool kInline =
        std::is_trivially_copyable_v<F> &&
        sizeof(F) <= Thunk::kInlineBytes &&
        alignof(F) <= alignof(void *);

  private:
    template <class D>
    static void
    inlineOp(Thunk &thunk, Thunk::Op op)
    {
        // Trivially copyable: the stored bytes are the callable, and
        // there is nothing to release.
        if (op == Thunk::Op::kRun) {
            std::array<unsigned char, sizeof(D)> bytes{};
            std::memcpy(bytes.data(), thunk.storage, sizeof(D));
            std::bit_cast<D>(bytes)();
        }
    }

    template <class D>
    static void
    boxedOp(Thunk &thunk, Thunk::Op op)
    {
        D *raw = nullptr;
        std::memcpy(&raw, thunk.storage, sizeof raw);
        const std::unique_ptr<D> box(raw);
        if (op == Thunk::Op::kRun)
            (*box)();
    }

    Thunk thunk_;
};

/**
 * Callbacks parked under small integer slots, so that a per-line
 * event can carry a `[this, slot]` capture instead of the callback
 * itself. Freed slots are reused: after warm-up, put/take never
 * allocate.
 */
class CallbackPool
{
  public:
    std::uint32_t
    put(Callback cb)
    {
        if (free_.empty()) {
            slots_.push_back(std::move(cb));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(cb);
        return slot;
    }

    /** Remove and return the callback parked under `slot`. */
    Callback
    take(std::uint32_t slot)
    {
        free_.push_back(slot);
        return std::move(slots_[slot]);
    }

  private:
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace tt::sim

#endif // TT_SIM_CALLBACK_HH
