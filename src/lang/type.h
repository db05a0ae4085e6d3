#ifndef MCHECK_LANG_TYPE_H
#define MCHECK_LANG_TYPE_H

#include "support/interner.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mc::lang {

/** Index of a type in a TypeTable. kInvalidType means "unknown". */
using TypeId = std::int32_t;
inline constexpr TypeId kInvalidType = -1;

/** Kind of a type in the FLASH dialect's small type system. */
enum class TypeKind : std::uint8_t
{
    Void,
    Char,
    Short,
    Int,
    Long,
    UChar,
    UShort,
    UInt,
    ULong,
    Float,
    Double,
    Pointer,
    Array,
    Struct,
    Union,
    Enum,
    /** A typedef name whose definition was not seen. */
    Named,
};

/** One interned type. Aggregate types reference others by TypeId. */
struct Type
{
    TypeKind kind = TypeKind::Int;
    /** Pointee for Pointer, element for Array. */
    TypeId base = kInvalidType;
    /** Element count for Array (0 if unsized). */
    std::int64_t array_size = 0;
    /** Tag or typedef name for Struct/Union/Enum/Named. */
    std::string name;
};

/**
 * Interns types so a TypeId comparison is a type-identity comparison.
 *
 * The table also records struct/union layouts (field types in order) so
 * the execution-restriction checker can evaluate the paper's rule that
 * no-stack handlers "do not declare arrays or structures larger than 64
 * bits".
 */
class TypeTable
{
  public:
    TypeTable();

    TypeTable(const TypeTable&) = delete;
    TypeTable& operator=(const TypeTable&) = delete;

    /** Builtin (non-aggregate, non-derived) type of the given kind. */
    TypeId
    builtin(TypeKind kind)
    {
        TypeId cached = builtins_[static_cast<std::size_t>(kind)];
        return cached != kInvalidType ? cached : addBuiltin(kind);
    }

    /** Pointer to `pointee`. */
    TypeId
    pointerTo(TypeId pointee)
    {
        auto i = static_cast<std::size_t>(pointee);
        if (pointee >= 0 && i < pointers_.size() &&
            pointers_[i] != kInvalidType)
            return pointers_[i];
        return addPointer(pointee);
    }

    /** Array of `count` elements of `element`. */
    TypeId arrayOf(TypeId element, std::int64_t count);

    /** Struct/union/enum/typedef-name type with interned tag `name`. */
    TypeId named(TypeKind kind, support::SymbolId name);

    /** named() with the tag interned in SymbolInterner::global(). */
    TypeId named(TypeKind kind, std::string_view name);

    /** Record the field types of a struct/union definition. */
    void defineRecord(TypeId record, std::vector<TypeId> field_types);

    /** The type `id` names; a Named "<unknown>" type for bad ids. */
    const Type&
    type(TypeId id) const
    {
        if (id < 0 || id >= static_cast<TypeId>(types_.size()))
            return kUnknown;
        return types_[static_cast<std::size_t>(id)];
    }

    /** True for Float / Double (the no-float checker's predicate). */
    bool
    isFloating(TypeId id) const
    {
        TypeKind k = type(id).kind;
        return k == TypeKind::Float || k == TypeKind::Double;
    }

    /** True for integral builtins and enums. */
    bool isInteger(TypeId id) const;

    /**
     * Size in bits, for the 64-bit stack-residency rule. Unknown types
     * conservatively report 64 bits (register-safe); unsized arrays
     * report a large value so they always trip the rule.
     */
    std::int64_t sizeInBits(TypeId id) const;

    /** "unsigned int", "struct Foo *", ... for diagnostics. */
    std::string describe(TypeId id) const;

  private:
    /** Identity of a type: what intern() compares. */
    struct Key
    {
        TypeKind kind;
        TypeId base;
        std::int64_t count;
        support::SymbolId name;

        friend bool operator==(const Key&, const Key&) = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key& k) const noexcept;
    };

    std::vector<Type> types_;
    std::unordered_map<Key, TypeId, KeyHash> by_key_;
    /** builtin()'s answers by kind, kInvalidType until first use. */
    std::array<TypeId, static_cast<std::size_t>(TypeKind::Named) + 1>
        builtins_;
    /** pointerTo()'s answers by pointee, kInvalidType until first use. */
    std::vector<TypeId> pointers_;
    std::map<TypeId, std::vector<TypeId>> record_fields_;

    /** What type() returns for an id the table never issued. */
    static const Type kUnknown;

    /** The id of `key`, appending `t` on first use. */
    TypeId intern(const Key& key, Type t);
    /** builtin() on the first use of `kind`. */
    TypeId addBuiltin(TypeKind kind);
    /** pointerTo() on the first use of `pointee`. */
    TypeId addPointer(TypeId pointee);
};

} // namespace mc::lang

#endif // MCHECK_LANG_TYPE_H
