package logic

// WordWidth is the number of bit levels held by a Word7 or a Mask: the
// machine word length L exploited by the bit-parallel generator.
const WordWidth = 64

// AllLevels is the mask selecting every bit level of a word.
const AllLevels uint64 = ^uint64(0)
