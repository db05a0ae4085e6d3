#include "lang/type.h"

#include <sstream>
#include <utility>

namespace mc::lang {

namespace {

const char*
builtinName(TypeKind kind)
{
    switch (kind) {
      case TypeKind::Void: return "void";
      case TypeKind::Char: return "char";
      case TypeKind::Short: return "short";
      case TypeKind::Int: return "int";
      case TypeKind::Long: return "long";
      case TypeKind::UChar: return "unsigned char";
      case TypeKind::UShort: return "unsigned short";
      case TypeKind::UInt: return "unsigned int";
      case TypeKind::ULong: return "unsigned long";
      case TypeKind::Float: return "float";
      case TypeKind::Double: return "double";
      default: return "?";
    }
}

} // namespace

const Type TypeTable::kUnknown{TypeKind::Named, kInvalidType, 0,
                               "<unknown>"};

TypeTable::TypeTable() { builtins_.fill(kInvalidType); }

std::size_t
TypeTable::KeyHash::operator()(const Key& k) const noexcept
{
    std::uint64_t h = static_cast<std::uint64_t>(k.kind);
    h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(k.base);
    h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(k.count);
    h = h * 0x9E3779B97F4A7C15ULL + k.name;
    return static_cast<std::size_t>(h ^ (h >> 29));
}

TypeId
TypeTable::intern(const Key& key, Type t)
{
    auto [it, fresh] =
        by_key_.try_emplace(key, static_cast<TypeId>(types_.size()));
    if (fresh)
        types_.push_back(std::move(t));
    return it->second;
}

TypeId
TypeTable::addBuiltin(TypeKind kind)
{
    Type t;
    t.kind = kind;
    TypeId id =
        intern(Key{kind, kInvalidType, 0, support::kInvalidSymbol}, t);
    builtins_[static_cast<std::size_t>(kind)] = id;
    return id;
}

TypeId
TypeTable::addPointer(TypeId pointee)
{
    Type t;
    t.kind = TypeKind::Pointer;
    t.base = pointee;
    TypeId id = intern(
        Key{TypeKind::Pointer, pointee, 0, support::kInvalidSymbol}, t);
    if (pointee >= 0) {
        auto i = static_cast<std::size_t>(pointee);
        if (i >= pointers_.size())
            pointers_.resize(i + 1, kInvalidType);
        pointers_[i] = id;
    }
    return id;
}

TypeId
TypeTable::arrayOf(TypeId element, std::int64_t count)
{
    Type t;
    t.kind = TypeKind::Array;
    t.base = element;
    t.array_size = count;
    return intern(Key{TypeKind::Array, element, count, support::kInvalidSymbol},
                  t);
}

TypeId
TypeTable::named(TypeKind kind, support::SymbolId name)
{
    Key key{kind, kInvalidType, 0, name};
    auto it = by_key_.find(key);
    if (it != by_key_.end())
        return it->second;
    Type t;
    t.kind = kind;
    t.name = std::string(support::SymbolInterner::global().name(name));
    return intern(key, std::move(t));
}

TypeId
TypeTable::named(TypeKind kind, std::string_view name)
{
    return named(kind, support::SymbolInterner::global().intern(name));
}

void
TypeTable::defineRecord(TypeId record, std::vector<TypeId> field_types)
{
    record_fields_[record] = std::move(field_types);
}

bool
TypeTable::isInteger(TypeId id) const
{
    switch (type(id).kind) {
      case TypeKind::Char:
      case TypeKind::Short:
      case TypeKind::Int:
      case TypeKind::Long:
      case TypeKind::UChar:
      case TypeKind::UShort:
      case TypeKind::UInt:
      case TypeKind::ULong:
      case TypeKind::Enum:
        return true;
      default:
        return false;
    }
}

std::int64_t
TypeTable::sizeInBits(TypeId id) const
{
    const Type& t = type(id);
    switch (t.kind) {
      case TypeKind::Void: return 0;
      case TypeKind::Char:
      case TypeKind::UChar: return 8;
      case TypeKind::Short:
      case TypeKind::UShort: return 16;
      case TypeKind::Int:
      case TypeKind::UInt:
      case TypeKind::Enum:
      case TypeKind::Float: return 32;
      case TypeKind::Long:
      case TypeKind::ULong:
      case TypeKind::Double:
      case TypeKind::Pointer: return 64;
      case TypeKind::Array: {
        if (t.array_size <= 0)
            return 1 << 20; // unsized arrays always trip the 64-bit rule
        return t.array_size * sizeInBits(t.base);
      }
      case TypeKind::Struct:
      case TypeKind::Union: {
        auto it = record_fields_.find(id);
        if (it == record_fields_.end())
            return 1 << 20; // opaque records are never register-safe
        std::int64_t bits = 0;
        for (TypeId f : it->second) {
            std::int64_t fb = sizeInBits(f);
            if (t.kind == TypeKind::Union)
                bits = fb > bits ? fb : bits;
            else
                bits += fb;
        }
        return bits;
      }
      case TypeKind::Named:
        return 64; // unknown typedefs are assumed register-sized
    }
    return 64;
}

std::string
TypeTable::describe(TypeId id) const
{
    if (id == kInvalidType)
        return "<unknown>";
    const Type& t = type(id);
    switch (t.kind) {
      case TypeKind::Pointer:
        return describe(t.base) + " *";
      case TypeKind::Array: {
        std::ostringstream os;
        os << describe(t.base) << '[' << t.array_size << ']';
        return os.str();
      }
      case TypeKind::Struct: return "struct " + t.name;
      case TypeKind::Union: return "union " + t.name;
      case TypeKind::Enum: return "enum " + t.name;
      case TypeKind::Named: return t.name;
      default: return builtinName(t.kind);
    }
}

} // namespace mc::lang
