/**
 * @file
 * VLIW machine descriptions.
 *
 * A Machine is a set of named unit classes — each with an instance
 * count and a pipelined flag — plus a per-opcode binding (which class
 * executes the op) and a per-opcode latency. The tables are dynamic:
 * a machine may have any number of classes, from one universal pool to
 * arbitrary heterogeneous shapes, and every scheduler/verifier layer
 * reads the shape through numClasses()/classOf() instead of assuming
 * the compile-time four-class preset layout. machine/machdesc provides
 * the parseable text form of these tables.
 *
 * Section 5 of the paper evaluates three functional-unit configurations:
 *
 *  - P1L4: 1 load/store, 1 div/sqrt, 1 adder, 1 multiplier; adder and
 *    multiplier latency 4.
 *  - P2L4: two units of each kind, same latencies.
 *  - P2L6: like P2L4 with adder/multiplier latency 6.
 *
 * All three share: store latency 1, load latency 2, divide 17, square
 * root 30; all units fully pipelined except div/sqrt. The worked
 * example of Figure 2 uses a fourth shape: N universal units on which
 * every operation executes with a uniform latency; `universal` models
 * that as a single-class machine.
 */

#ifndef SWP_MACHINE_MACHINE_HH
#define SWP_MACHINE_MACHINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/opcode.hh"

namespace swp
{

/** One named class of identical functional units. */
struct UnitClass
{
    std::string name;
    int units = 0;
    bool pipelined = true;

    bool
    operator==(const UnitClass &o) const
    {
        return name == o.name && units == o.units &&
               pipelined == o.pipelined;
    }
};

/** A VLIW machine configuration. */
class Machine
{
  public:
    /**
     * Build from explicit dynamic tables (the machdesc parser's entry
     * point). `class_of[op]` indexes `classes`; both per-opcode arrays
     * have numOpcodes entries.
     */
    Machine(std::string name, std::vector<UnitClass> classes,
            const int (&class_of)[numOpcodes],
            const int (&latency)[numOpcodes]);

    /** Build a machine of `units` universal FUs, all latencies `lat`. */
    static Machine universal(std::string name, int units, int lat);

    /** @name The paper's Section 5 configurations (embedded
        machine-description text, parsed by machine/machdesc). */
    /// @{
    static Machine p1l4();
    static Machine p2l4();
    static Machine p2l6();
    /// @}

    const std::string &name() const { return name_; }

    /** Number of unit classes. */
    int numClasses() const { return int(classes_.size()); }

    /** The c-th unit class (0 <= c < numClasses()). */
    const UnitClass &
    unitClass(int c) const
    {
        return classes_[std::size_t(c)];
    }

    /** Class index executing an opcode. */
    int classOf(Opcode op) const { return classOf_[int(op)]; }

    /** Unit instances in class c. */
    int unitsInClass(int c) const { return classes_[std::size_t(c)].units; }

    /** True if units of class c accept one op per cycle. */
    bool
    pipelinedClass(int c) const
    {
        return classes_[std::size_t(c)].pipelined;
    }

    /** Name of class c. */
    const std::string &
    className(int c) const
    {
        return classes_[std::size_t(c)].name;
    }

    /** True if every op executes on one shared pool (Figure 2 shape). */
    bool isUniversal() const { return classes_.size() == 1; }

    /** Issue latency of an opcode in cycles. */
    int latency(Opcode op) const { return latency_[int(op)]; }

    /**
     * Cycles an op occupies its unit: 1 when its class is pipelined,
     * otherwise its full latency (the div/sqrt units of the paper).
     */
    int
    occupancy(Opcode op) const
    {
        return pipelinedClass(classOf(op)) ? 1 : latency(op);
    }

    /**
     * The canonical machine-description text of this machine;
     * parseMachineDescription(describe()) reproduces it exactly
     * (machine/machdesc round-trip).
     */
    std::string describe() const;

    /**
     * machineContentFingerprint of this machine, computed once when it
     * is built (a Machine has no mutators), so the memos key every
     * request on it without re-hashing the tables.
     */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /** Equality over everything describe() emits: name, classes,
        per-opcode binding and latency. */
    bool operator==(const Machine &o) const;

  private:
    std::string name_;
    std::vector<UnitClass> classes_;
    int classOf_[numOpcodes] = {0};
    int latency_[numOpcodes] = {0};
    std::uint64_t fingerprint_ = 0;
};

} // namespace swp

#endif // SWP_MACHINE_MACHINE_HH
