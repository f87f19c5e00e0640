/**
 * @file
 * HardwareConfig <-> key=value serialization, so design points can be
 * stored in files and loaded by the tools.
 */

#ifndef ACS_HW_SERIALIZE_HH
#define ACS_HW_SERIALIZE_HH

#include "common/keyval.hh"
#include "hw/config.hh"

namespace acs {
namespace hw {

/** Serialize every field of @p cfg. */
KeyVal toKeyVal(const HardwareConfig &cfg);

/**
 * Build a config from a KeyVal.
 *
 * Absent keys keep the HardwareConfig default (the A100-class
 * template values); present keys must parse, and a key toKeyVal does
 * not write is fatal, naming it. The result is validated before
 * returning.
 */
HardwareConfig configFromKeyVal(const KeyVal &kv);

/** Parse a ProcessNode name ("7nm"); fatal on unknown names. */
ProcessNode processFromString(const std::string &name);

} // namespace hw
} // namespace acs

#endif // ACS_HW_SERIALIZE_HH
