"""File damage for stores kept in a :class:`repro.cas.BlobStore`.

Every typed view over a blob store (``ImageStore``, ``ResultCache``)
must read a damaged entry as a miss — never an exception, never a
different value.  The rows that are about the blob store's own files
live here once; each view's tests add the rows about its record format.

A row is ``damage(cas, ref_path, blob_path)`` applied to one stored
entry.
"""


def flip_bit(path, offset=-1):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def foreign_blob(cas, ref, payload):
    """Point the ref at a digest-valid blob that is not its entry."""
    ref.write_text(cas.put(payload))


def each_bit_flip(path):
    """Write every single-bit flip of ``path``'s bytes in turn, yielding
    the bit index while it is on disk; the pristine bytes are restored
    at the end."""
    pristine = path.read_bytes()
    try:
        for bit in range(8 * len(pristine)):
            data = bytearray(pristine)
            data[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(data))
            yield bit
    finally:
        path.write_bytes(pristine)


#: The blob store's own rows, whatever the blob holds.
BLOB_DAMAGE = {
    "truncated-blob": lambda cas, ref, blob: blob.write_bytes(
        blob.read_bytes()[:-7]),
    "bit-flipped-blob": lambda cas, ref, blob: flip_bit(blob, 40),
    "bit-flipped-ref": lambda cas, ref, blob: flip_bit(ref),
    "malformed-ref": lambda cas, ref, blob: ref.write_text("not a digest"),
    "dangling-ref": lambda cas, ref, blob: blob.unlink(),
}
