// Access control lists. "The users that are permitted to access each
// segment are named by an access control list associated with each
// segment.... The gate list and the numbers specifying the read, write,
// and execute brackets and gate extension in each SDW all come from the
// access control list entry which permitted the process to include the
// corresponding segment in its virtual memory."
#ifndef SRC_SUP_ACL_H_
#define SRC_SUP_ACL_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/brackets.h"

namespace rings {

inline constexpr char kAclWildcard[] = "*";

struct AclEntry {
  std::string user;  // user name, or "*" matching any user
  SegmentAccess access;
};

class AccessControlList {
 public:
  AccessControlList() = default;
  AccessControlList(std::initializer_list<AclEntry> entries) : entries_(entries) {}

  // First matching entry wins (specific entries should precede the
  // wildcard).
  std::optional<SegmentAccess> Lookup(const std::string& user) const;

  void Add(AclEntry entry) { entries_.push_back(std::move(entry)); }
  // Replaces the entry for `user` (or adds one). Returns false if the
  // entry is malformed (ill-formed brackets).
  bool Set(const std::string& user, const SegmentAccess& access);
  void Remove(const std::string& user);

  bool empty() const { return entries_.empty(); }
  const std::vector<AclEntry>& entries() const { return entries_; }
  std::vector<AclEntry>& entries() { return entries_; }

  // Grants `access` to every user.
  static AccessControlList Public(const SegmentAccess& access) {
    return AccessControlList{{kAclWildcard, access}};
  }
  static AccessControlList ForUser(const std::string& user, const SegmentAccess& access) {
    return AccessControlList{{user, access}};
  }

 private:
  std::vector<AclEntry> entries_;
};

}  // namespace rings

#endif  // SRC_SUP_ACL_H_
