#ifndef MCHECK_CHECKERS_METAL_SOURCES_H
#define MCHECK_CHECKERS_METAL_SOURCES_H

namespace mc::checkers {

/**
 * The textual metal checkers shipped with the library (Figures 2 and 3 of
 * the paper, and the Section 9 send-wait and directory checkers),
 * embedded at build time from src/checkers/metal/\*.metal so binaries
 * need no runtime file lookup.
 */
extern const char* const kWaitForDbMetal;
extern const char* const kMsgLenCheckMetal;
extern const char* const kSendWaitMetal;
extern const char* const kDirCheckMetal;

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_METAL_SOURCES_H
