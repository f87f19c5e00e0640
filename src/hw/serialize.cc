#include "serialize.hh"

#include "common/logging.hh"

namespace acs {
namespace hw {

KeyVal
toKeyVal(const HardwareConfig &cfg)
{
    KeyVal kv;
    kv.set("name", cfg.name);
    kv.setInt("core_count", cfg.coreCount);
    kv.setInt("lanes_per_core", cfg.lanesPerCore);
    kv.setInt("systolic_dim_x", cfg.systolicDimX);
    kv.setInt("systolic_dim_y", cfg.systolicDimY);
    kv.setInt("vector_width", cfg.vectorWidth);
    kv.setDouble("clock_hz", cfg.clockHz);
    kv.setInt("op_bitwidth", cfg.opBitwidth);
    kv.setDouble("l1_bytes_per_core", cfg.l1BytesPerCore);
    kv.setDouble("l2_bytes", cfg.l2Bytes);
    kv.setDouble("mem_capacity_bytes", cfg.memCapacityBytes);
    kv.setDouble("mem_bandwidth", cfg.memBandwidth);
    kv.setInt("device_phy_count", cfg.devicePhyCount);
    kv.setDouble("per_phy_bandwidth", cfg.perPhyBandwidth);
    kv.set("process", toString(cfg.process));
    kv.setBool("non_planar", cfg.nonPlanarTransistor);
    kv.setInt("dies_per_package", cfg.diesPerPackage);
    return kv;
}

ProcessNode
processFromString(const std::string &name)
{
    if (name == "16nm")
        return ProcessNode::N16;
    if (name == "12nm")
        return ProcessNode::N12;
    if (name == "7nm")
        return ProcessNode::N7;
    if (name == "5nm")
        return ProcessNode::N5;
    fatal("unknown process node: " + name);
}

HardwareConfig
configFromKeyVal(const KeyVal &kv)
{
    HardwareConfig cfg;
    // A misspelled key would otherwise leave its field at the
    // default without a word.
    const KeyVal known = toKeyVal(cfg);
    for (const std::string &key : kv.keys())
        fatalIf(!known.has(key), "config: unknown key '" + key + "'");
    if (kv.has("name"))
        cfg.name = kv.getString("name");
    cfg.coreCount =
        static_cast<int>(kv.getInt("core_count", cfg.coreCount));
    cfg.lanesPerCore = static_cast<int>(
        kv.getInt("lanes_per_core", cfg.lanesPerCore));
    cfg.systolicDimX = static_cast<int>(
        kv.getInt("systolic_dim_x", cfg.systolicDimX));
    cfg.systolicDimY = static_cast<int>(
        kv.getInt("systolic_dim_y", cfg.systolicDimY));
    cfg.vectorWidth =
        static_cast<int>(kv.getInt("vector_width", cfg.vectorWidth));
    cfg.clockHz = kv.getDouble("clock_hz", cfg.clockHz);
    cfg.opBitwidth =
        static_cast<int>(kv.getInt("op_bitwidth", cfg.opBitwidth));
    cfg.l1BytesPerCore =
        kv.getDouble("l1_bytes_per_core", cfg.l1BytesPerCore);
    cfg.l2Bytes = kv.getDouble("l2_bytes", cfg.l2Bytes);
    cfg.memCapacityBytes =
        kv.getDouble("mem_capacity_bytes", cfg.memCapacityBytes);
    cfg.memBandwidth = kv.getDouble("mem_bandwidth", cfg.memBandwidth);
    cfg.devicePhyCount = static_cast<int>(
        kv.getInt("device_phy_count", cfg.devicePhyCount));
    cfg.perPhyBandwidth =
        kv.getDouble("per_phy_bandwidth", cfg.perPhyBandwidth);
    if (kv.has("process"))
        cfg.process = processFromString(kv.getString("process"));
    if (kv.has("non_planar"))
        cfg.nonPlanarTransistor = kv.getBool("non_planar");
    cfg.diesPerPackage = static_cast<int>(
        kv.getInt("dies_per_package", cfg.diesPerPackage));
    cfg.validate();
    return cfg;
}

} // namespace hw
} // namespace acs
